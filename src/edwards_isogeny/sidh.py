"""Desk-scale SIDH key exchange over F_{p^2}.

p = 4*3^m*5^n - 1, base curve E_{-1} (supersingular, order (p+1)^2 over
the extension).  Party A walks a 3^m-isogeny chain, party B a
5^n-chain; each publishes its codomain parameter and the images of the
other party's torsion basis, and both land on isomorphic final curves,
compared by j-invariant.

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
                     InvalidParameter, NotOnCurve, ProtocolError, SetupFailed,
                     check_int)
from .field import OpCounter, PrimeField, is_probable_prime
from .field_ext import QuadExtField
from .isogeny import IsogenyChain, OddKernel, _carry, _divide, recover_y
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
    """Deterministic protocol parameters for p = 4*3^m*5^n - 1.

    DeskScaleOnly when p exceeds `max_p`, by default DESK_PRIME_LIMIT;
    a larger `max_p` admits the 247- and 763-bit primes."""
    check_int(m, "m")
    check_int(n, "n")
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
    rng = random.Random(seed)
    basis_a = _torsion_basis(curve, 3, m, rng)
    basis_b = _torsion_basis(curve, 5, n, rng)
    return ProtocolParams(p, m, n, seed, field, curve, basis_a, basis_b)


def _random_point(curve: EdwardsCurve, rng: random.Random) -> AffinePoint:
    for _ in range(_SAMPLING_BUDGET):
        x = curve.field.random_element(rng)
        try:
            P = recover_y(x, curve)
        except (ExceptionalInput, NotOnCurve):
            continue
        if rng.randrange(2):
            P = P.neg()
        return P
    raise SetupFailed("random point sampling exhausted")


def _torsion_basis(curve: EdwardsCurve, l: int, e: int,
                   rng: random.Random) -> TorsionBasis:
    """Two independent points of exact order l^e, built by cofactor
    multiplication of random points.  Independence: their order-l
    multiples generate different subgroups.  Each draw R is walked on
    the x-line, T = 4*o^f*R by `xladder` and U = l^(e-1)*T by `xmul`,
    and skipped when U has X = Z: U = O, or the (0 : 0) of R = O or
    (-1, 0); a 2R at infinity gives T = O, as E[2^inf] = (Z/4)^2.  Only
    the two points kept get a y, by `recover_xy` from R, x(T), x(T + R),
    each made affine by an inversion of its own."""
    # The cofactor (p + 1) / l^e is 4 * o^f, o the other party's prime.
    cofactor, one = (curve.field.p + 1) // l ** e, curve.field.one
    c = curve.xline

    def samples():
        """(R, T, T + R, U) for each draw R whose T has exact order l^e."""
        for _ in range(_SAMPLING_BUDGET):
            R = _random_point(curve, rng)
            T, S = xladder(cofactor, (R.x, one), c)
            U = T
            for _ in range(e - 1):
                U = xmul(l, U, c)
            if U[0] != U[1]:
                yield R, T, S, U

    first = next(samples(), None)
    if first is None:
        raise SetupFailed(f"no point of order {l}^{e} found")
    *draw, U = first
    subgroup = OddKernel.from_x(U, l, curve)
    for *partner, V in samples():
        if not _in_subgroup(V, subgroup):
            P, Q = (AffinePoint(*_divide(
                recover_xy(R, T, S, curve.a, curve.d)))
                for R, T, S in (draw, partner))
            return TorsionBasis(l, e, P, Q, _x_difference(curve, P, Q))
    raise SetupFailed(f"no independent order-{l}^{e} partner found")


def _in_subgroup(V: tuple, subgroup: OddKernel) -> bool:
    """Whether the point of order l with x-line (X, Z) = V lies in the
    order-l subgroup: points share an x-coordinate exactly when they are
    equal or opposite, so this compares X/Z, projectively, with the
    representatives' (X_i : Z_i) of x(U), ..., x(sU)."""
    X, Z = V
    return any(X * Zi == Xi * Z for Xi, Zi in subgroup.K)


def _x_difference(E: EdwardsCurve, P: AffinePoint, Q: AffinePoint) -> tuple:
    """x-line (X, Z) of P - Q, by one projective addition."""
    X, _, Z = E.add_proj(P.projective(), Q.neg().projective())
    return X, Z


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
    pushed by `_carry` and made affine with d' = D'/C' by one inversion."""
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

    ProtocolError unless the images (P', Q') form a basis of E[l^e], so
    a malformed key (an image at O, P' = Q', an image of too low an
    order) yields no j-invariant.  This does not protect a static secret
    against the adaptive attack of Galbraith, Petit, Shani and Ti
    (ASIACRYPT 2016): its forged images, such as (P', Q' + l^(e-1)*P'),
    are still a basis and pass.  Stopping it needs the other party's
    secret to recompute the key, as in the Fujisaki-Okamoto transform
    or the validation of Kirkwood et al. (2015).

    x(P' - Q') is taken with one projective addition, and x(R) for
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
    basis = params.basis(keypair.side)
    l, e = basis.degree, basis.exponent
    P, Q = other_public.image_p, other_public.image_q
    try:
        E = EdwardsCurve(params.field, params.field.one,
                         params.field(other_public.codomain_d))
        if not (E.contains(P) and E.contains(Q)):
            raise NotOnCurve("the basis images are not on the codomain")
        R = _secret_kernel(E, P, Q, _x_difference(E, P, Q), keypair.secret)
        chain = IsogenyChain(E, R, [l] * e)
        U = (Q.x, E.field.one)
        for _ in range(e - 1):
            U = xmul(l, U, E.xline)
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
    with curve.field.counting(OpCounter()):
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
