"""Supersingularity checks, congruence gates, and SIDH-prime search.

A curve over F_p is supersingular exactly when it has p + 1 points
(desk scale: verified by exhaustive count).  Moduli of the form
p = 4*3^m*5^n - 1 put both 3- and 5-torsion on a complete supersingular
curve; the quadratic-class variant uses p = 8*3^m*5^n - 1.  The search
balances 3^m against 5^n (m ~ 1.465 n) so both isogeny ladders offer a
comparable number of subgroups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curve import EdwardsCurve
from .errors import InvalidParameter, check_int
from .field import is_probable_prime

COMPLETE_4 = "complete_4"     # order 4*3^m*5^n, p = -1 mod 60
QUADRATIC_8 = "quadratic_8"   # order 8*3^m*5^n, p = -1 mod 120

_COFACTOR = {COMPLETE_4: 4, QUADRATIC_8: 8}
BALANCE_RATIO = 1.465         # m / n that balances 3^m against 5^n

LOG2_3 = math.log2(3)
LOG2_5 = math.log2(5)


def is_supersingular(curve: EdwardsCurve) -> bool:
    """Exact order count (desk scale): p + 1 over F_p, (p+1)^2 over
    F_{p^2}."""
    p = curve.field.p
    expected = (p + 1) ** curve.field.degree
    return curve.order() == expected


def _cofactor(variant: str) -> int:
    try:
        return _COFACTOR[variant]
    except KeyError:
        raise InvalidParameter(f"unknown variant {variant!r}") from None


def congruence_gate(p: int, variant: str = COMPLETE_4) -> bool:
    """Necessary congruence for 3- and 5-torsion on a supersingular
    curve of the given family: p = -1 mod 15 * cofactor, that is mod 60
    (complete) or mod 120 (quadratic)."""
    modulus = 15 * _cofactor(variant)
    return p % modulus == modulus - 1


def supersingular_excluded(p: int) -> bool:
    """True when p = 1 (mod 4): then p + 1 = 2 (mod 4) while every
    Edwards curve order is divisible by 4, so no supersingular Edwards
    curves exist."""
    return p % 4 == 1


def supersingular_d_scan(prime_field, class_tag: str | None = None) -> list:
    """All d with E_{1,d} supersingular over the desk-scale field,
    optionally filtered by curve class."""
    out = []
    for dv in range(2, prime_field.p):
        d = prime_field(dv)
        curve = EdwardsCurve(prime_field, prime_field.one, d)
        if class_tag is not None and curve.class_tag != class_tag:
            continue
        if is_supersingular(curve):
            out.append(d)
    return out


@dataclass(frozen=True)
class SidhPrime:
    p: int
    m: int
    n: int
    bit_length: int
    variant: str = COMPLETE_4

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "p_hex": format(self.p, "x"),
                "bits": self.bit_length,
                "sidh_key_bits": sidh_key_bits(self.bit_length),
                "quantum_security_bits": quantum_security_bits(self.bit_length)}


# Upper bounds of a search grid: the largest search they allow tests a
# few hundred candidates of up to 2080 bits, a few seconds of work.
MAX_TARGET_BITS = 2048
MAX_WINDOW = 16
MAX_TOLERANCE = 32


@dataclass
class SearchSpec:
    """Search grid description: n is derived from the bit target and m
    scans round(BALANCE_RATIO * n) +/- window.  The target lies in
    [4, MAX_TARGET_BITS], the window in [0, MAX_WINDOW] and the
    tolerance in [0, MAX_TOLERANCE], each an int."""
    target_bits: int
    variant: str = COMPLETE_4
    window: int = 8
    bits_tolerance: int = 16

    def __post_init__(self):
        _cofactor(self.variant)
        for name in ("target_bits", "window", "bits_tolerance"):
            check_int(getattr(self, name), name)
        if not 4 <= self.target_bits <= MAX_TARGET_BITS:
            raise InvalidParameter(f"bit target outside [4, {MAX_TARGET_BITS}]")
        if not (0 <= self.window <= MAX_WINDOW
                and 0 <= self.bits_tolerance <= MAX_TOLERANCE):
            raise InvalidParameter(f"window outside [0, {MAX_WINDOW}] or "
                                   f"tolerance outside [0, {MAX_TOLERANCE}]")


def estimate_bit_length(m: int, n: int, variant: str = COMPLETE_4) -> int:
    """ceil(log2 cofactor + m*log2(3) + n*log2(5)); exact to +/-1."""
    cof = _cofactor(variant)
    return math.ceil(math.log2(cof) + m * LOG2_3 + n * LOG2_5)


def sidh_key_bits(p_bits: int) -> int:
    """SIDH key-length estimate 6*log2(p)."""
    return 6 * p_bits


def quantum_security_bits(p_bits: int) -> int:
    """Quantum security level log2(p)/6 (sixth-root attack complexity).

    A historical, pre-2022 figure: SIDH has since been broken
    classically in polynomial time (Castryck and Decru 2022, Maino and
    Martindale 2022, Robert 2023), so it measures nothing today."""
    return p_bits // 6


def search_sidh_primes(spec: SearchSpec) -> list[SidhPrime]:
    """All primes cof*3^m*5^n - 1 on the grid whose bit length is
    within tolerance of the target, sorted by distance from the target,
    ties broken by (n, m)."""
    cof = _cofactor(spec.variant)
    per_n = BALANCE_RATIO * LOG2_3 + LOG2_5
    center = (spec.target_bits - math.log2(cof)) / per_n
    slack = max(2, round(spec.bits_tolerance / per_n) + 1)
    found = []
    for n in range(max(1, round(center) - slack), round(center) + slack + 1):
        m_center = round(BALANCE_RATIO * n)
        for m in range(max(1, m_center - spec.window),
                       m_center + spec.window + 1):
            p = cof * 3 ** m * 5 ** n - 1
            bits = p.bit_length()
            if abs(bits - spec.target_bits) > spec.bits_tolerance:
                continue
            if is_probable_prime(p):
                found.append(SidhPrime(p, m, n, bits, spec.variant))
    found.sort(key=lambda r: (abs(r.bit_length - spec.target_bits), r.n, r.m))
    return found


# Built-in reference table of published ~768-bit search results
# (m, n, hex value of 4*3^m*5^n - 1, claimed bit length).
REFERENCE_ROWS = (
    (238, 165,
     "50f6d0ab1dad4fb9048ca2e5357e7fa140806f49f72b711a651962fd24d6ae30"
     "953eeb9cafca76f39eae708b2bfa6926d7df2937074b004fa4d966e8ecd7469b"
     "c771d4dd084b5a9f358a2c83e4f67398f1b7972610af76087956accd41b0c33",
     763),
    (243, 168,
     "25869530ff4e3ece49cacad3ea2e345995ec4714b12e4378f2d1a730421dfc56"
     "067c5ca5ec3dffe7e410ebab910f1cd27fd7af9340425411e9f0bf417f1dbafa"
     "dd8d935f5be0324ed80899da7d593f60de8304e6f2585c2dde7751b31562d544"
     "edeb",
     778),
    (247, 156,
     "d0e0e81c7cf2831a189cf43da28062552d4a98e390e7b3f3bb8bd34b91e364d7"
     "849480255df7222b93e45fe7640850a6e60e1afd64a07ee55f821e7009ec557c"
     "fbd9abca5dd1b758d06ec0939ca37cc685f937196f3bd26aa01ae966c35eb",
     756),
)


def verify_reference_row(m: int, n: int, hex_p: str, claimed_bits: int) -> dict:
    """Reconstruct 4*3^m*5^n - 1 and compare it to a published row.
    Discrepancies are reported, not asserted: the reconstruction is the
    ground truth, the published hex may carry transcription defects."""
    p = 4 * 3 ** m * 5 ** n - 1
    recon_hex = format(p, "x")
    hex_match = recon_hex == hex_p.lower()
    report = {
        "m": m,
        "n": n,
        "bits_computed": p.bit_length(),
        "bits_claimed": claimed_bits,
        "bits_match": p.bit_length() == claimed_bits,
        "is_prime": is_probable_prime(p),
        "hex_match": hex_match,
        "p_hex": recon_hex,
    }
    if not hex_match:
        report["hex_note"] = _first_difference(recon_hex, hex_p.lower())
    return report


def verify_reference_table() -> list[dict]:
    return [verify_reference_row(*row) for row in REFERENCE_ROWS]


def _first_difference(computed: str, published: str) -> str:
    if len(computed) != len(published):
        note = f"published hex has {len(published)} digits, reconstruction {len(computed)}"
    else:
        note = "same length"
    for i, (c1, c2) in enumerate(zip(computed, published)):
        if c1 != c2:
            return (f"{note}; first difference at hex digit {i}: "
                    f"computed ...{computed[i:i+8]}, published ...{published[i:i+8]}")
    return f"{note}; shared prefix of {min(len(computed), len(published))} digits"
