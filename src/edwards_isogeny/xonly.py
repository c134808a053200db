"""x-only (X : Z) evaluation of 3- and 5-isogenies.

Works on the first coordinate alone; the second is recoverable from the
curve equation up to sign.  Codomains come out in the scaled form
C'(x^2 + y^2) = C' + D'x^2y^2 with d' = D'/C', which avoids inversions.

Costs (M = mul, S = square; additions are tallied separately and not
part of the advertised figures):

    get_3_isog   2M + 3S        eval_3_isog  4M + 2S   -> 6M + 5S total
    get_5_isog   2M + 6S (with the kernel squares shared from the
                 evaluation; 4M + 10S standalone)
    eval_5_isog  19M + 6S                              -> 21M + 12S total

The 3-isogeny evaluation never reads the curve parameter d: for a
kernel abscissa satisfying the order-3 division condition the map
depends on coordinates only.

The chains, SIDH's secret kernels and bases, and
`EdwardsCurve.point_order` run on the x-line too, on (X, Z) pairs of
E_{1,d}, through u = (1 + x)/(1 - x), with c = 1 - d as the pair
(C - D, C) for d = D/C: a curve's `xline`, formed once from its
`pair` (D : C) = (d : a), so (a - d, a) on E_{a,d}; 1M less if C = 1:

    xdbl         4M + 2S        xadd         4M + 2S
    xmul(3, .)   8M + 4S        xmul(5, .)   12M + 6S
    xladder      xdbl, then xadd + xdbl a bit of k after the first; a
                 second bit 0 costs the xadd alone
    ladder3pt    b xadd + (b - 1) xdbl, x(P + kQ) for k of b bits
    odd_image    4sM + 2S, P under a kernel K of s = (l - 1)/2 points
                 (X_i, Z_i); eval_3_isog is its one-point case
    odd_codomain (D', C') of K for l >= 5: 3M + 3S a side at l = 5, and
                 1M + 3S for a side whose D or C is one
    recover_xy   11M + 4S (12M off a = 1), kP as the fractions x = X/Z
                 and y = num/den from P and xladder's x(kP), x((k+1)P)

An x-line point is an (X, Z) pair, an `XZPoint` or not, and a kernel a
list of them.  `xdbl`, `xadd`, `odd_image`, `get_3_isog` and
`odd_codomain` compute inline mod p on the (c0, c1) ints of their
inputs, writing i^2 = -1, which is exact on F_p too, where c1 = 0.  Each
adds one fixed tally a call, a row of `tally_rows` chosen by its branch:
F_p or F_{p^2}, and C = 1 or not.  The row is what the field elements'
operators count for the same formula.  Those element formulas are the
counted oracle in tests/oracles.py, and tests/test_xonly.py::TestRawCore
asserts that both give the same values and tallies.

Points at infinity are x-line points like any other (x = infinity is
Z = 0).  `xadd` needs its difference to be neither O nor (-1, 0), the
two points whose u is infinity or 0, so for those two P `xladder` gives
points with X = Z, O or (0 : 0), and `xmul(l, P)` is (0 : 0);
`OddKernel.from_x` rejects (0 : 0) as O.  `ladder3pt`, whose
differences vary, raises there instead.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from .errors import ExceptionalInput, FieldMismatch
from .field import FieldElement
from .field_ext import QuadExtElement, QuadExtField

# The tally columns: F_p and F_{p^2}.
FP, FP2 = 0, 1


@lru_cache(maxsize=256)
def tally_rows(m: int, s: int, a: int) -> tuple:
    """(M, S, A, ext_M, ext_S, ext_A) of m products, s squares and a
    additions in each tally column, as the element operators count them."""
    return ((m, s, a, 0, 0, 0),
            (3 * m + 2 * s, 0, 5 * m + 3 * s + 2 * a, m, s, a))


def odd_rows(s: int) -> tuple:
    """`tally_rows` of `odd_image` with s kernel points."""
    return tally_rows(4 * s, 2, 2 * s + 4)


XDBL, XDBL_C1, XADD = tally_rows(4, 2, 4), tally_rows(3, 2, 4), odd_rows(1)


def _fp(c0: int, c1: int, field) -> FieldElement:
    return FieldElement(c0, field)


def _enter(rows: tuple, *xs) -> tuple:
    """(p, element type, field) of the field of `xs`, with its column of
    `rows` tallied; FieldMismatch if `xs` span two fields."""
    f = xs[0].field
    for x in xs:
        if x.field is not f and x.field != f:
            raise FieldMismatch(f"x-line operands from {f!r} and {x.field!r}")
    quad = type(f) is QuadExtField
    m, s, a, em, es, ea = rows[FP2 if quad else FP]
    c = (f.base if quad else f).counter
    c.m, c.s, c.a = c.m + m, c.s + s, c.a + a
    c.ext_m, c.ext_s, c.ext_a = c.ext_m + em, c.ext_s + es, c.ext_a + ea
    return f.p, QuadExtElement if quad else _fp, f


def _mul(a: tuple, b: tuple, p: int) -> tuple:
    """(a0 + a1 i)(b0 + b1 i) mod p by Karatsuba, and a square (a is b)
    as ((a0 + a1)(a0 - a1), 2 a0 a1) by two products; the hot formulas
    write both inline."""
    (a0, a1), (b0, b1) = a, b
    if a is b:
        u = a0 * a1
        return (a0 + a1) * (a0 - a1) % p, (u + u) % p
    u, v = a0 * b0, a1 * b1
    return (u - v) % p, ((a0 + a1) * (b0 + b1) - u - v) % p


class XZPoint(NamedTuple("XZPoint", [("X", object), ("Z", object)])):
    """Projective x-line point (X : Z), a pair like any other (X, Z);
    (X : 0) marks an exceptional image (a point at infinity)."""

    __slots__ = ()

    def __new__(cls, X, Z):
        if X.is_zero() and Z.is_zero():
            raise ValueError("(0 : 0) is not a projective point")
        return super().__new__(cls, X, Z)

    @classmethod
    def from_x(cls, x) -> "XZPoint":
        return cls(x, x.field.one)

    @classmethod
    def from_affine(cls, P) -> "XZPoint":
        return cls.from_x(P.x)

    def is_exceptional(self) -> bool:
        return self.Z.is_zero()

    def affine_x(self):
        return self.X / self.Z


class ProjParams(NamedTuple):
    """Scaled parameter pair (D : C) with d = D/C: a codomain's, or a
    curve's own `pair`; it unpacks as (D, C)."""

    D: object
    C: object

    def d_prime(self):
        return self.D / self.C


def get_3_isog(K1: tuple) -> ProjParams:
    """Codomain of the 3-isogeny with kernel abscissa K1 = (X1, Z1):
    D' = Z1*(2X1 + Z1)^3, C' = X1*(2Z1 + X1)^3, as
    D' = (t + Z1^2)(4X1^2 + Z1^2 + 2t) with t = 2X1Z1, which counts as
    (X1 + Z1)^2 - X1^2 - Z1^2.  cost: 2M + 3S (and 14A)."""
    p, new, f = _enter(tally_rows(2, 3, 14), *K1)
    x, z = [(V._c0, V._c1) for V in K1]
    xx, zz, xz = _mul(x, x, p), _mul(z, z, p), _mul(x, z, p)
    t0, t1 = 2 * xz[0], 2 * xz[1]                    # t = 2 X1 Z1
    D, C = (new(*_mul((t0 + a0, t1 + a1),
                      (4 * b0 + a0 + 2 * t0, 4 * b1 + a1 + 2 * t1), p), f)
            for (a0, a1), (b0, b1) in ((zz, xx), (xx, zz)))
    return ProjParams(D, C)


def eval_3_isog(P: tuple, K1: tuple) -> XZPoint:
    """Image of P = (X, Z) under the 3-isogeny with kernel K1 = (X1, Z1):
    F = X'+Z' = (X1*Z + Z1*X)^2 (X+Z), G = X'-Z' = (X1*Z - Z1*X)^2 (X-Z).
    Independent of the curve parameter d."""
    return XZPoint(*odd_image(P, [K1]))                      # cost: 4M+2S


def odd_image(P: tuple, K: list) -> tuple:
    """Image of P = (X, Z) under the odd-degree isogeny whose kernel
    representatives Q, 2Q, ..., sQ are the points K[i] = (x_i, z_i):

        F = (X + Z) * prod (x_i Z + z_i X)^2
        G = (X - Z) * prod (x_i Z - z_i X)^2
        (X' : Z') = (F + G : F - G)

    This is Costello and Hisil's u' = u * prod ((u u_i - 1)/(u - u_i))^2
    (ASIACRYPT 2017) with u = (1 + x)/(1 - x); it reads no curve
    parameter.  cost: 4sM + 2S."""
    return _odd(P, K, False)


def _odd(P: tuple, K: list, products: bool, D: tuple | None = None) -> tuple:
    """`odd_image`'s (X', Z'), then, if `products`, the two products
    prod (x_i Z + z_i X) and prod (x_i Z - z_i X) that it squares, at no
    extra cost; with D = (Xd, Zd), F and G take Zd - Xd and -(Zd + Xd)
    for X + Z and X - Z: `xadd`."""
    X, Z = P
    p, new, f = _enter(odd_rows(len(K)), X, Z, *chain(*K), *(D or ()))
    x0, x1, z0, z1 = X._c0, X._c1, Z._c0, Z._c1
    plus = minus = None
    for Xi, Zi in K:                                 # x_i Z +- z_i X
        k0, k1, j0, j1 = Xi._c0, Xi._c1, Zi._c0, Zi._c1
        u, v, w, y = k0 * z0, k1 * z1, j0 * x0, j1 * x1
        a0, a1 = u - v, (k0 + k1) * (z0 + z1) - u - v
        b0, b1 = w - y, (j0 + j1) * (x0 + x1) - w - y
        a, b = ((a0 + b0) % p, (a1 + b1) % p), ((a0 - b0) % p, (a1 - b1) % p)
        plus, minus = (a, b) if plus is None else (
            _mul(plus, a, p), _mul(minus, b, p))
    (P0, P1), (M0, M1) = plus, minus
    out = (new(P0, P1, f), new(M0, M1, f)) if products else ()
    if D is not None:
        x0, x1, z0, z1 = -D[0]._c0, -D[0]._c1, D[1]._c0, D[1]._c1
    FG = []
    for a0, a1, b0, b1 in ((P0, P1, x0 + z0, x1 + z1),
                           (M0, M1, x0 - z0, x1 - z1)):
        u = a0 * a1                                  # (X +- Z) prod^2
        a0, a1 = (a0 + a1) * (a0 - a1) % p, (u + u) % p
        u, v = a0 * b0, a1 * b1
        FG += u - v, (a0 + a1) * (b0 + b1) - u - v
    F0, F1, G0, G1 = FG
    return (new((F0 + G0) % p, (F1 + G1) % p, f),
            new((F0 - G0) % p, (F1 - G1) % p, f)) + out


def odd_codomain(K: list, D, C, l: int) -> ProjParams:
    """(D', C') = (D^(l-4) (D X^2)^4, C^(l-4) (C Z^2)^4) for X = prod X_i
    and Z = prod Z_i, that is (X^8 D^l, Z^8 C^l) and d' = D'/C', for the
    degree-l kernel K of points (X_i, Z_i) on d = D/C.  cost a side: (s - 1)M + 3S,
    and unless its D or C is one, 2M more and its (l - 4)th power by
    square-and-multiply: 3M + 3S at l = 5, 1M + 3S if C = 1."""
    k = l - 4
    n = sum(W._c0 != 1 or W._c1 != 0 for W in (D, C))
    p, new, f = _enter(tally_rows(
        2 * len(K) - 2 + n * (1 + bin(k).count("1")),
        6 + n * (k.bit_length() - 1), 0), D, C, *chain(*K))
    out = []
    for V, W in zip(zip(*K), (D, C)):
        x, w = (V[0]._c0, V[0]._c1), (W._c0, W._c1)
        for y in V[1:]:
            x = _mul(x, (y._c0, y._c1), p)
        x, unit = _mul(x, x, p), w == (1, 0)             # X^2
        if not unit:
            x = _mul(x, w, p)
        x = _mul(x, x, p)
        x = _mul(x, x, p)                                # (W X^2)^4
        if not unit:
            r = w
            for bit in bin(k)[3:]:
                r = _mul(r, r, p)
                if bit == "1":
                    r = _mul(r, w, p)
            x = _mul(x, r, p)
        out.append(new(*x, f))
    return ProjParams(*out)


def xdbl(P: tuple, c: tuple) -> tuple:
    """2P for (X, Z) on E_{1,d}, c = (C - D, C) for d = D/C: with
    (U : W) = (Z + X : Z - X) the doubling is
    ((C - D) X^2 Z^2 : e ((C - D) X^2 + C e)), e = Z^2 - X^2, and
    (X' : Z') = (U - W : U + W).  cost: 4M+2S, 3M+2S when C = 1."""
    (X, Z), (N, C) = P, c
    one = C._c0 == 1 and C._c1 == 0
    p, new, f = _enter(XDBL_C1 if one else XDBL, X, Z, N, C)
    x0, x1, z0, z1 = X._c0, X._c1, Z._c0, Z._c1
    u, v = x0 * x1, z0 * z1                          # X^2, Z^2
    x0, x1 = (x0 + x1) * (x0 - x1) % p, (u + u) % p
    z0, z1 = (z0 + z1) * (z0 - z1) % p, (v + v) % p
    t0, t1 = _mul((N._c0, N._c1), (x0, x1), p)       # t = (C - D) X^2
    e0, e1 = z0 - x0, z1 - x1
    g0, g1 = (e0, e1) if one else _mul((C._c0, C._c1), (e0, e1), p)
    g0, g1 = t0 + g0, t1 + g1                        # t + C e
    u, v = t0 * z0, t1 * z1                          # U = t Z^2
    U0, U1 = u - v, (t0 + t1) * (z0 + z1) - u - v
    u, v = e0 * g0, e1 * g1                          # W = e (t + C e)
    W0, W1 = u - v, (e0 + e1) * (g0 + g1) - u - v
    return (new((U0 - W0) % p, (U1 - W1) % p, f),
            new((U0 + W0) % p, (U1 + W1) % p, f))


def xadd(P: tuple, Q: tuple, D: tuple) -> tuple:
    """P + Q from D = P - Q, the Montgomery differential addition on
    u = (Z + X)/(Z - X): with s = X1 Z2 and t = Z1 X2,
    (U : W) = ((Zd - Xd)(s + t)^2 : (Zd + Xd)(s - t)^2).  cost: 4M+2S,
    as `odd_image` of Q by the kernel P, whose F and G it is."""
    return _odd(Q, [P], False, D)


def xladder(k: int, P: tuple, c: tuple) -> tuple:
    """(kP, (k+1)P) for k >= 1 by the Montgomery ladder, whose
    differences are all P.  A 0 as the second bit of k keeps the 2P just
    computed: (P, 2P) becomes (2P, 3P) by one `xadd`."""
    if k < 1:
        raise ValueError(f"xladder needs k >= 1, got {k}")
    bits = bin(k)[3:]
    lo, hi = P, xdbl(P, c)
    if bits[:1] == "0":
        lo, hi, bits = hi, xadd(hi, P, P), bits[1:]
    for bit in bits:
        if bit == "1":
            lo, hi = xadd(hi, lo, P), xdbl(hi, c)
        else:
            lo, hi = xdbl(lo, c), xadd(hi, lo, P)
    return lo, hi


def xmul(l: int, P: tuple, c: tuple) -> tuple:
    """l*P for odd l >= 3: `xladder(l // 2)` and one `xadd`, 8M+4S at
    l = 3 and 12M+6S at l = 5, a doubling 1M less when C = 1."""
    lo, hi = xladder(l // 2, P, c)
    return xadd(hi, lo, P)


def recover_xy(P: tuple, Q: tuple, S: tuple, a, d) -> tuple:
    """(x, y) of Q = kP on E_{a,d} from the affine P = (x, y) and
    the ladder's Q = (X, Z) and S = Q + P = (Xs, Zs): the y-recovery of
    Okeya and Sakurai (CHES 2001; Costello and Smith, J. Cryptogr. Eng.
    2018, Alg. 5) on the Montgomery model, u = (1 + x)/(1 - x) and
    v = u/y, written in x,

        y(Q) = 2 (1 - x^2)(Z^2 - X^2)(Zs - Xs) / (y * N),
        N = (Zs - Xs)(2a Z^2 + 2d x^2 X^2 - (a + d)(X^2 + x^2 Z^2))
            - (a - d)(Zs + Xs)(X - x Z)^2,

    and x(Q) = X/Z, as the fractions ((X, Z), (num, den)), which the
    caller divides, so several points can share one inversion.  Where
    the formula is void, S = O gives Q = -P, and x(Q) = 1 or -1 gives O
    or (-1, 0).  P must be neither O nor (-1, 0), the points with y = 0,
    and Q must be affine.  cost: 12M + 4S, 11M when a = 1."""
    x, y = P
    X, Z = Q
    Xs, Zs = S
    one = X.field.one
    if X == Z or X == -Z:                # Q = O or (-1, 0), y = 0
        return (X, Z), (X.field.zero, one)
    if Xs == Zs:                         # Q + P = O
        return (x, one), (-y, one)
    XX, ZZ, xx = X.square(), Z.square(), x.square()
    Ws = Zs - Xs
    t = (ZZ if a == 1 else a * ZZ) + d * (xx * XX)
    N = (Ws * (t + t - (a + d) * (XX + xx * ZZ))
         - (a - d) * (Zs + Xs) * (X - x * Z).square())
    num = (1 - xx) * (ZZ - XX) * Ws
    return (X, Z), (num + num, y * N)


def ladder3pt(k: int, P: tuple, Q: tuple, D: tuple, c: tuple) -> tuple:
    """P + k*Q for k >= 0 from P, Q and D = P - Q, by the right-to-left
    three-point ladder of Faz-Hernandez, Longa, Lopez and Dahab (IEEE
    Trans. Computers 2019).  It keeps R0 = 2^i Q, R1 = P + (k mod 2^i) Q
    and R2 = R1 - R0, from (Q, P, D): bit i of k adds R0 to R1, whose
    difference is R2, or takes R2 - R0, whose sum is R1; R0 is doubled
    between bits.  A k of b bits costs b `xadd`s and b - 1 `xdbl`s.

    ExceptionalInput if a difference met, D or a later R1 or R2, is O or
    (-1, 0), the two points where `xadd` fails; otherwise the result is
    exactly P + k*Q, as the differential addition holds for every pair
    whose difference is neither."""
    if k < 0:
        raise ValueError(f"ladder3pt needs k >= 0, got {k}")
    R0, R1, R2 = Q, P, D
    while k:
        Xd, Zd = R2 if k & 1 else R1
        p = Xd.field.p
        if Xd == Zd or (Xd._c0 + Zd._c0) % p == (Xd._c1 + Zd._c1) % p == 0:
            raise ExceptionalInput(
                "a ladder difference P + a*Q is O or (-1, 0)")
        if k & 1:
            R1 = xadd(R0, R1, R2)
        else:
            R2 = xadd(R0, R2, R1)
        k >>= 1
        if k:
            R0 = xdbl(R0, c)
    return R1


def _eval_5(P: XZPoint, K1: XZPoint, K2: XZPoint, d):
    s0 = P.X.square()
    s1 = K1.X.square()
    s2 = K2.X.square()
    s3 = P.Z.square()
    s4 = K1.Z.square()
    s5 = K2.Z.square()
    t0 = d * s0
    t1 = d * s1
    t2 = d * s2
    g1 = s1 - s4
    f1 = t1 - s4
    g2 = s2 - s5
    f2 = t2 - s5
    h1 = s3 * g1 - s0 * f1        # X^2(Z1^2 - dX1^2) + Z^2(X1^2 - Z1^2)
    i1 = s3 * f1 - t0 * g1        # dX^2(Z1^2 - X1^2) + Z^2(dX1^2 - Z1^2)
    h2 = s3 * g2 - s0 * f2
    i2 = s3 * f2 - t0 * g2
    l1 = s1 * s2                  # X1^2 * X2^2
    l2 = s4 * s5                  # Z1^2 * Z2^2
    Xp = P.X * l2
    Xp = Xp * h1
    Xp = Xp * h2
    Zp = P.Z * l1
    Zp = Zp * i1
    Zp = Zp * i2
    return XZPoint(Xp, Zp), l1, l2


def eval_5_isog(P: XZPoint, K1: XZPoint, K2: XZPoint, d) -> XZPoint:
    """Image of (X : Z) under the 5-isogeny with kernel abscissas
    (X1 : Z1), (X2 : Z2) of Q and 2Q.  cost: 19M+6S."""
    image, _, _ = _eval_5(P, K1, K2, d)
    return image


def _codomain_5(d, l1, l2) -> ProjParams:
    # D' = (X1^2 X2^2)^4 * d^5,  C' = (Z1^2 Z2^2)^4.   cost: 2M+6S
    D = d.square()
    D = D.square()
    D = D * d
    L = l1.square()
    L = L.square()
    Dp = L * D
    C = l2.square()
    Cp = C.square()
    return ProjParams(Dp, Cp)


def get_5_isog(K1: XZPoint, K2: XZPoint, d, shared=None) -> ProjParams:
    """Codomain of the 5-isogeny.  With `shared` = (X1^2*X2^2,
    Z1^2*Z2^2) from the evaluation pass the cost is 2M+6S; standalone
    the kernel squares are recomputed first (extra 2M+4S)."""
    if shared is None:
        s1 = K1.X.square()
        s2 = K2.X.square()
        s4 = K1.Z.square()
        s5 = K2.Z.square()
        shared = (s1 * s2, s4 * s5)
    return _codomain_5(d, shared[0], shared[1])


def run_5_isog(P: XZPoint, K1: XZPoint, K2: XZPoint,
               d) -> tuple[XZPoint, ProjParams]:
    """Image point and codomain in one pass, sharing the kernel
    squares.  cost: 21M+12S."""
    image, l1, l2 = _eval_5(P, K1, K2, d)
    return image, _codomain_5(d, l1, l2)
