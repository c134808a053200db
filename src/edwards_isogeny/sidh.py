"""Desk-scale SIDH key exchange over F_{p^2}.

p = 4*3^m*5^n - 1, base curve E_{-1} (supersingular, order (p+1)^2 over
the extension).  Party A walks a 3^m-isogeny chain, party B a 5^n-chain;
each publishes its codomain parameter and the images of the other
party's torsion basis, a P of E(F_p) and its image under the
automorphism psi(x, y) = (1/x, i*y); both land on isomorphic final
curves, compared by j-invariant.

Secrets are parsed as R = P + k*Q (never Q + k*P), which reaches l^e of
the l^(e-1)*(l+1) cyclic subgroups; enough for a demonstration and
stated in the transcript.  R is taken on the x-line, by the three-point
ladder from x(P), x(Q) and x(P - Q), as its kernel reads x(R) only.
All randomness comes from the setup seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .curve import AffinePoint, EdwardsCurve
from .errors import (DeskScaleOnly, EdwardsError, ExceptionalInput,
                     ExceptionalPair, InvalidParameter, NotOnCurve,
                     ProtocolError, SetupFailed, check_int, check_type)
from .field import OpCounter, PrimeField, _divide, is_probable_prime
from .field_ext import QuadExtField
from .isogeny import IsogenyChain, OddKernel, _carry, recover_y
from .xonly import ladder3pt, recover_xy, xladder, xmul

DESK_PRIME_LIMIT = 10_000
SIDE_A = "A"   # 3^m chain
SIDE_B = "B"   # 5^n chain

_SAMPLING_BUDGET = 10_000


@dataclass
class TorsionBasis:
    degree: int       # l
    exponent: int     # e; points have exact order l^e
    P: AffinePoint
    Q: AffinePoint
    diff: tuple       # x-line (X, Z) of P - Q, for the secret's ladder


@dataclass
class ProtocolParams:
    p: int
    m: int
    n: int
    seed: int
    field: QuadExtField
    curve: EdwardsCurve
    basis_a: TorsionBasis
    basis_b: TorsionBasis

    def basis(self, side: str) -> TorsionBasis:
        if side == SIDE_A:
            return self.basis_a
        if side == SIDE_B:
            return self.basis_b
        raise ProtocolError(f"unknown side {side!r}")

    def other(self, side: str) -> str:
        return SIDE_B if side == SIDE_A else SIDE_A

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "n": self.n, "seed": self.seed,
                "curve": self.curve.to_json(),
                "basis_a": [self.basis_a.P.to_json(), self.basis_a.Q.to_json()],
                "basis_b": [self.basis_b.P.to_json(), self.basis_b.Q.to_json()]}


@dataclass
class PublicKey:
    codomain_d: object            # extension-field element
    image_p: AffinePoint          # images of the other side's basis
    image_q: AffinePoint

    def to_json(self) -> dict:
        return {"d_prime": self.codomain_d.to_str(),
                "image_p": self.image_p.to_json(),
                "image_q": self.image_q.to_json()}


@dataclass
class PartyKeypair:
    side: str
    secret: int
    chain: IsogenyChain
    public: PublicKey


def setup(m: int, n: int, seed: int = 0,
          max_p: int | None = None) -> ProtocolParams:
    """Deterministic parameters for p = 4*3^m*5^n - 1: E_{1,-1} over
    F_{p^2} and a basis P, psi(P) a side, A's first (`_torsion_basis`).
    InvalidParameter unless m, n and seed are ints; DeskScaleOnly when p
    exceeds `max_p`, DESK_PRIME_LIMIT unless a larger one is given."""
    for value, name in ((m, "m"), (n, "n"), (seed, "seed")):
        check_int(value, name)
    if m < 1 or n < 1:
        raise InvalidParameter("need m, n >= 1 so both parties have torsion")
    limit = DESK_PRIME_LIMIT if max_p is None else max_p
    if m + n >= limit.bit_length():      # p > 2^(m+n): refuse before 3^m
        raise DeskScaleOnly(
            f"p = 4*3^{m}*5^{n} - 1 exceeds the demo limit {limit}")
    p = 4 * 3 ** m * 5 ** n - 1
    if p > limit:
        raise DeskScaleOnly(f"p = {p} exceeds the demo limit {limit}")
    field = QuadExtField(PrimeField(p))
    curve = EdwardsCurve(field, field.one, field(-1))
    curve.xline                          # made here, so no keygen pays it
    rng = random.Random(seed)
    bases = [_torsion_basis(curve, l, e, rng) for l, e in ((3, m), (5, n))]
    return ProtocolParams(p, m, n, seed, field, curve, *bases)


def _random_point(curve: EdwardsCurve, rng: random.Random) -> AffinePoint:
    for _ in range(_SAMPLING_BUDGET):
        try:
            P = recover_y(curve.field.random_element(rng), curve)
        except (ExceptionalInput, NotOnCurve):
            continue
        return P.neg() if rng.randrange(2) else P
    raise SetupFailed("random point sampling exhausted")


def _torsion_basis(curve: EdwardsCurve, l: int, e: int,
                   rng: random.Random) -> TorsionBasis:
    """P of exact order l^e on E_{1,-1} over F_p, lifted to F_{p^2}, and
    Q = psi(P), psi(x, y) = (1/x, i*y), an automorphism (psi^2 = -1) as
    (1/x, iy) meets the curve equation over x^2.  Frobenius fixes P and
    negates Q, so l^(e-1)*Q = k*l^(e-1)*P would give 2*l^(e-1)*Q = O,
    against its odd order l: P and Q span E[l^e].  Each draw R is walked
    on the F_p x-line, T = 4*o^f*R (o the other prime) by `xladder` and
    U = l^(e-1)*T by `xmul`, and skipped when U has X = Z: U = O, or the
    (0 : 0) of R = O or (-1, 0).  The first T kept gets x, y and 1/x by
    `recover_xy` from R, x(T), x(T + R) and one `_divide`."""
    F, base = curve.field, EdwardsCurve(curve.field.base, 1, -1)
    cofactor, one, c = (F.p + 1) // l ** e, F.base.one, base.xline
    for _ in range(_SAMPLING_BUDGET):
        R = _random_point(base, rng)
        T, S = xladder(cofactor, (R.x, one), c)
        U = xmul(l, T, c, e - 1)
        if U[0] != U[1]:
            xz, yf = recover_xy(R, T, S, base.a, base.d)
            x, y, x_inv = _divide([xz, yf, xz[::-1]])
            P, Q = AffinePoint(F(x), F(y)), AffinePoint(F(x_inv), F(0, y))
            return TorsionBasis(l, e, P, Q, _x_difference(curve, P, Q))
    raise SetupFailed(f"no point of order {l}^{e} found")


def _in_subgroup(V: tuple, subgroup: OddKernel) -> bool:
    """Whether the point of order l with x-line (X, Z) = V lies in the
    order-l subgroup: points share an x-coordinate exactly when they are
    equal or opposite, so this compares X/Z, projectively, with the
    representatives' (X_i : Z_i) of x(U), ..., x(sU)."""
    X, Z = V
    return any(X * Zi == Xi * Z for Xi, Zi in subgroup.K)


def _x_difference(E: EdwardsCurve, P: AffinePoint, Q: AffinePoint) -> tuple:
    """x-line (X, Z) of P - Q, the law's x fraction
    (x1*x2 + a*y1*y2 : 1 + t), t = d*x1*x2*y1*y2: 4M at a = 1.  Raises
    ExceptionalPair when P - Q is a singular point at infinity, where
    1 + t or y's denominator 1 - t is zero."""
    C, D = P.x * Q.x, P.y * Q.y
    t = E.d * C * D
    if t == 1 or t == -1:
        raise ExceptionalPair("P - Q lies at infinity")
    return C + E._times_a(D), 1 + t


def _secret_kernel(E: EdwardsCurve, P: AffinePoint, Q: AffinePoint,
                   diff: tuple, secret: int) -> tuple:
    """x-line (X, Z) of R = P + secret*Q, by `ladder3pt`."""
    one = E.field.one
    return ladder3pt(secret, (P.x, one), (Q.x, one), diff, E.xline)


def keygen(params: ProtocolParams, side: str, secret: int) -> PartyKeypair:
    """Kernel R = P_side + secret*Q_side, chain of prime-degree steps,
    public key = codomain parameter plus pushed-through images of the
    other side's basis.  R is taken on the x-line from the basis and its
    stored x(P - Q), and the chain starts from x(R).  The two images are
    pushed by `_carry`, on the x-line alone as a = 1, and made affine
    with d' = D'/C' by one inversion."""
    check_type(params, ProtocolParams, "params", ProtocolError)
    basis = params.basis(side)
    l, e = basis.degree, basis.exponent
    check_int(secret, "secret", ProtocolError)
    if not 0 <= secret < l ** e:
        raise ProtocolError(f"secret must lie in [0, {l}^{e})")
    E = params.curve
    R = _secret_kernel(E, basis.P, basis.Q, basis.diff, secret)
    other = params.basis(params.other(side))
    chain = IsogenyChain(E, R, [l] * e)
    (P, Q), (d,) = _carry(chain.steps, (other.P, other.Q), chain.codomain.pair)
    return PartyKeypair(side, secret, chain, PublicKey(d, P, Q))


def derive_shared(params: ProtocolParams, keypair: PartyKeypair,
                  other_public: PublicKey):
    """Second chain, from the image kernel on the other party's
    codomain; returns the shared j-invariant in F_{p^2}.

    ProtocolError unless d' is an element of the field and the images
    (P', Q') pairs of them that form a basis of E[l^e], so a malformed key
    (an image at O, P' = Q', an image of too low an order) yields no
    j-invariant.  This does not protect a static secret against the
    adaptive attack of Galbraith, Petit, Shani and Ti (ASIACRYPT 2016):
    its forged images, such as (P', Q' + l^(e-1)*P'), are still a basis
    and pass.  Stopping it needs the other party's secret to recompute the
    key, as in the Fujisaki-Okamoto transform or the validation of
    Kirkwood et al. (2015).

    x(P' - Q') is the law's x fraction, with no inversion, and x(R) for
    R = P' + k*Q' by `ladder3pt`, which raises when a difference it meets
    is O or (-1, 0); so its output is exactly x(R), never that of a
    point the degenerate formula happened to give.  The chain proves
    that R has exact order l^e; its step-0 kernel point is
    K0 = l^(e-1)*R.  U = l^(e-1)*Q', taken on the x-line
    by the chain's l-fold steps, must satisfy U != O and l*U = O
    (`OddKernel.from_x`), so Q' has exact order l^e, and K0 must lie
    outside <U> (`_in_subgroup`).  Then l^(e-1)*P' = K0 - k*U lies
    outside <U> too, so it is not O, P' (a difference of two points of
    order l^e) has exact order l^e, and the order-l multiples of P' and
    Q' span E[l]; hence P' and Q' generate all of E[l^e].
    """
    check_type(params, ProtocolParams, "params", ProtocolError)
    check_type(keypair, PartyKeypair, "keypair", ProtocolError)
    check_type(other_public, PublicKey, "public key", ProtocolError)
    basis, F = params.basis(keypair.side), params.field
    l, e = basis.degree, basis.exponent
    try:
        d = F(other_public.codomain_d)
        P, Q = (AffinePoint(*map(F, V)) for V in (other_public.image_p,
                                                  other_public.image_q))
    except (TypeError, EdwardsError) as exc:
        raise ProtocolError(f"malformed public key: {exc}") from None
    try:
        E = EdwardsCurve(F, F.one, d)
        if not (E.contains(P) and E.contains(Q)):
            raise NotOnCurve("the basis images are not on the codomain")
        R = _secret_kernel(E, P, Q, _x_difference(E, P, Q), keypair.secret)
        chain = IsogenyChain(E, R, [l] * e)
        U = xmul(l, (Q.x, E.field.one), E.xline, e - 1)
        subgroup = OddKernel.from_x(U, l, E)
    except EdwardsError as exc:
        raise ProtocolError(f"malformed public key: {exc}") from exc
    if _in_subgroup(chain.steps[0].kernel.K[0], subgroup):
        raise ProtocolError(
            f"public basis images do not generate the {l}^{e}-torsion")
    return chain.codomain.j_invariant()


def count_cyclic_subgroups(curve: EdwardsCurve, l: int) -> int:
    """Number of cyclic subgroups of odd prime order l, by an uncounted
    desk-scale scan: each holds l - 1 of the P with y != 0 whose x-line
    `xmul(l, x(P))` has X = Z, a test that passes the points at infinity."""
    if l == 2 or not is_probable_prime(l):
        raise InvalidParameter(f"l = {l} is not an odd prime")
    with curve._uncounted():
        hits = sum(X == Z for X, Z in (
            xmul(l, (P.x, curve.field.one), curve.xline)
            for P in curve.points() if not P.y.is_zero()))
    if hits % (l - 1):
        raise EdwardsError(
            f"{hits} points of order {l} do not split into subgroups")
    return hits // (l - 1)


def run_exchange(m: int, n: int, seed: int = 0,
                 secret_a: int | None = None,
                 secret_b: int | None = None) -> dict:
    """Full key exchange with per-party operation counts; the
    transcript is a JSON-ready dict."""
    params = setup(m, n, seed)
    rng = random.Random(2 * seed + 1)    # distinct from the setup stream
    if secret_a is None:
        secret_a = rng.randrange(3 ** m)
    if secret_b is None:
        secret_b = rng.randrange(5 ** n)

    ctx_a, ctx_b = OpCounter(), OpCounter()
    with params.field.counting(ctx_a):
        kp_a = keygen(params, SIDE_A, secret_a)
    with params.field.counting(ctx_b):
        kp_b = keygen(params, SIDE_B, secret_b)
    with params.field.counting(ctx_a):
        j_a = derive_shared(params, kp_a, kp_b.public)
    with params.field.counting(ctx_b):
        j_b = derive_shared(params, kp_b, kp_a.public)

    return {
        "params": params.to_json(),
        "secret_a": secret_a,
        "secret_b": secret_b,
        "public_a": kp_a.public.to_json(),
        "public_b": kp_b.public.to_json(),
        "shared_j_a": j_a.to_str(),
        "shared_j_b": j_b.to_str(),
        "agree": j_a == j_b,
        "counters": {
            "alice": {"base": ctx_a.as_dict(), "ext": ctx_a.ext_as_dict()},
            "bob": {"base": ctx_b.as_dict(), "ext": ctx_b.ext_as_dict()},
        },
    }
