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
(C - D, C) for d = D/C ((1 - d/a, 1) on E_{a,d}); 1M less if C = 1:

    xdbl         4M + 2S        xadd         4M + 2S
    xmul(3, .)   8M + 4S        xmul(5, .)   12M + 6S
    xladder      xdbl, then xadd + xdbl a bit of k after the first; a
                 second bit 0 costs the xadd alone
    ladder3pt    b xadd + (b - 1) xdbl, x(P + kQ) for k of b bits
    odd_image    3sM + 2S for an affine kernel, 4sM + 2S projective,
                 s = (l - 1)/2; eval_3_isog is its one-point case
    recover_xy   16M + 4S + I (17M off a = 1), kP from P and xladder's
                 x(kP), x((k+1)P)

Points at infinity are x-line points like any other (x = infinity is
Z = 0).  `xadd` needs its difference to be neither O nor (-1, 0), the
two points whose u is infinity or 0, so for those two P `xladder` gives
points with X = Z, O or (0 : 0), and `xmul(l, P)` is (0 : 0);
`OddKernel.from_x` rejects (0 : 0) as O.  `ladder3pt`, whose
differences vary, raises there instead.
"""

from __future__ import annotations

from .errors import ExceptionalInput


class XZPoint:
    """Projective x-line point (X : Z); (X : 0) marks an exceptional
    image (a point at infinity)."""

    __slots__ = ("X", "Z")

    def __init__(self, X, Z):
        if X.is_zero() and Z.is_zero():
            raise ValueError("(0 : 0) is not a projective point")
        self.X = X
        self.Z = Z

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

    def same_class(self, other: "XZPoint") -> bool:
        """Projective equality: X1*Z2 = X2*Z1."""
        return self.X * other.Z == other.X * self.Z

    def __repr__(self):
        return f"({self.X!r} : {self.Z!r})"


class ProjParams:
    """Scaled codomain parameter pair (D' : C') with d' = D'/C'."""

    __slots__ = ("D", "C")

    def __init__(self, D, C):
        self.D = D
        self.C = C

    def d_prime(self):
        return self.D / self.C

    def same_class(self, other: "ProjParams") -> bool:
        return self.D * other.C == other.D * self.C

    def __repr__(self):
        return f"(D'={self.D!r} : C'={self.C!r})"


def get_3_isog(K1: XZPoint) -> ProjParams:
    """Codomain of the 3-isogeny with kernel abscissa (X1 : Z1):
    D' = Z1*(2X1 + Z1)^3, C' = X1*(2Z1 + X1)^3, factored through
    2X1Z1 = (X1 + Z1)^2 - X1^2 - Z1^2."""
    s1 = K1.X.square()
    s2 = K1.Z.square()
    t1 = (K1.X + K1.Z).square() - s1 - s2    # 2*X1*Z1
    t4 = t1 + t1
    s1_4 = s1 + s1
    s1_4 = s1_4 + s1_4
    s2_4 = s2 + s2
    s2_4 = s2_4 + s2_4
    Dp = (t1 + s2) * (s1_4 + s2 + t4)
    Cp = (t1 + s1) * (s2_4 + s1 + t4)
    return ProjParams(Dp, Cp)                # cost: 2M+3S


def eval_3_isog(P: XZPoint, K1: XZPoint) -> XZPoint:
    """Image of (X : Z) under the 3-isogeny with kernel (X1 : Z1):
    F = X'+Z' = (X1*Z + Z1*X)^2 (X+Z), G = X'-Z' = (X1*Z - Z1*X)^2 (X-Z).
    Independent of the curve parameter d."""
    return XZPoint(*odd_image((P.X, P.Z), [K1.X], [K1.Z]))   # cost: 4M+2S


def odd_image(P: tuple, xs: list, zs: list | None = None) -> tuple:
    """Image of (X, Z) under the odd-degree isogeny whose kernel
    representatives Q, 2Q, ..., sQ have abscissas xs[i]/zs[i], or xs[i]
    when `zs` is None:

        F = (X + Z) * prod (x_i Z + z_i X)^2
        G = (X - Z) * prod (x_i Z - z_i X)^2
        (X' : Z') = (F + G : F - G)

    This is Costello and Hisil's u' = u * prod ((u u_i - 1)/(u - u_i))^2
    (ASIACRYPT 2017) with u = (1 + x)/(1 - x); it reads no curve
    parameter.  cost: 3sM + 2S affine, 4sM + 2S projective."""
    X, Z = P
    plus, minus = odd_products(P, xs, zs)
    F = (X + Z) * plus.square()
    G = (X - Z) * minus.square()
    return F + G, F - G


def odd_products(P: tuple, xs: list, zs: list | None = None) -> tuple:
    """The products prod (x_i Z + z_i X) and prod (x_i Z - z_i X) of
    `odd_image`.  cost: (3s - 2)M affine, (4s - 2)M projective."""
    X, Z = P
    plus = minus = None
    for i, x in enumerate(xs):
        u, v = x * Z, (X if zs is None else zs[i] * X)
        if plus is None:
            plus, minus = u + v, u - v
        else:
            plus, minus = plus * (u + v), minus * (u - v)
    return plus, minus


def xdbl(P: tuple, c: tuple) -> tuple:
    """2P for (X, Z) on E_{1,d}, c = (C - D, C) for d = D/C: with
    (U : W) = (Z + X : Z - X) the doubling is
    ((C - D) X^2 Z^2 : e ((C - D) X^2 + C e)), e = Z^2 - X^2, and
    (X' : Z') = (U - W : U + W).  cost: 4M+2S, 3M+2S when C = 1."""
    (X, Z), (num, den) = P, c
    XX, ZZ = X.square(), Z.square()
    ct = num * XX
    e = ZZ - XX
    U, W = ct * ZZ, e * (ct + (e if den == 1 else den * e))
    return U - W, U + W


def xadd(P: tuple, Q: tuple, D: tuple) -> tuple:
    """P + Q from D = P - Q, the Montgomery differential addition on
    u = (Z + X)/(Z - X): with s = X1 Z2 and t = Z1 X2,
    (U : W) = ((Zd - Xd)(s + t)^2 : (Zd + Xd)(s - t)^2).  cost: 4M+2S."""
    Xd, Zd = D
    return _xadd(P, Q, Zd - Xd, Zd + Xd)


def _xadd(P: tuple, Q: tuple, minus, plus) -> tuple:
    """`xadd` with the difference given as Zd - Xd and Zd + Xd."""
    (X1, Z1), (X2, Z2) = P, Q
    s, t = X1 * Z2, Z1 * X2
    U = minus * (s + t).square()
    W = plus * (s - t).square()
    return U - W, U + W


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
    """Affine (x, y) of Q = kP on E_{a,d} from the affine P = (x, y) and
    the ladder's Q = (X, Z) and S = Q + P = (Xs, Zs): the y-recovery of
    Okeya and Sakurai (CHES 2001; Costello and Smith, J. Cryptogr. Eng.
    2018, Alg. 5) on the Montgomery model, u = (1 + x)/(1 - x) and
    v = u/y, written in x,

        y(Q) = 2 (1 - x^2)(Z^2 - X^2)(Zs - Xs) / (y * N),
        N = (Zs - Xs)(2a Z^2 + 2d x^2 X^2 - (a + d)(X^2 + x^2 Z^2))
            - (a - d)(Zs + Xs)(X - x Z)^2,

    with x(Q) = X/Z, by one inversion.  Where the formula is void, S = O
    gives Q = -P, and x(Q) = 1 or -1 gives O or (-1, 0).  P must be
    neither O nor (-1, 0), the points with y = 0, and Q must be affine.
    cost: 17M + 4S + I, 16M when a = 1."""
    x, y = P
    X, Z = Q
    Xs, Zs = S
    if X == Z or X == -Z:                # Q = O or (-1, 0), y = 0
        return X / Z, X.field.zero
    if Xs == Zs:                         # Q + P = O
        return x, -y
    XX, ZZ, xx = X.square(), Z.square(), x.square()
    Ws = Zs - Xs
    t = (ZZ if a == 1 else a * ZZ) + d * (xx * XX)
    N = (Ws * (t + t - (a + d) * (XX + xx * ZZ))
         - (a - d) * (Zs + Xs) * (X - x * Z).square())
    yN = y * N
    inv = (yN * Z).inverse()
    num = (1 - xx) * (ZZ - XX) * Ws
    return X * yN * inv, (num + num) * Z * inv


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
        minus, plus = Zd - Xd, Zd + Xd
        if minus.is_zero() or plus.is_zero():
            raise ExceptionalInput(
                "a ladder difference P + a*Q is O or (-1, 0)")
        if k & 1:
            R1 = _xadd(R0, R1, minus, plus)
        else:
            R2 = _xadd(R0, R2, minus, plus)
        k >>= 1
        if k:
            R0 = xdbl(R0, c)
    return R1


def run_3_isog(P: XZPoint, K1: XZPoint) -> tuple[XZPoint, ProjParams]:
    """Image point and codomain in one call.  cost: 6M+5S."""
    params = get_3_isog(K1)
    return eval_3_isog(P, K1), params


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
