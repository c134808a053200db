"""Independent brute-force oracles, written against raw integers only.

These deliberately share no code with the library: enumeration solves
the curve equation directly, scalar multiples come from repeated
addition, isogenies are products of group-law translates or the full
rational map, and the j-invariant goes through the Montgomery model.
The addition law, repeated addition and both isogeny maps also run over
F_{p^2}, on (c0, c1) int pairs by the schoolbook `naive_fp2_*`.  Test
expectations are computed here (or frozen from a previous run of these
oracles) and compared against the library's optimized paths.

The exception is the counted oracle at the end: the x-line formulas of
`edwards_isogeny.xonly` written with the library's field elements, whose
operators tally each M, S and A.  The library computes those formulas on
raw ints and adds a fixed tally a call; these show what it must add.
Beside them stands `run_5_isog`, the paper's one-pass 5-isogeny, which
the library does not run: its chains take `odd_codomain` and `odd_image`.
Last, `_lucas_chain` is the U, V and Q^k Lucas chain that the N+1
primality proof ran before it tested V alone.
"""

from edwards_isogeny.xonly import ProjParams, XZPoint, _eval_5, get_5_isog


def euler_chi(x: int, p: int) -> int:
    x %= p
    if x == 0:
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


def naive_points(p: int, a: int, d: int) -> list[tuple[int, int]]:
    """All affine solutions of x^2 + a*y^2 = 1 + d*x^2*y^2 by scanning
    the full (x, y) grid."""
    a %= p
    d %= p
    pts = []
    for x in range(p):
        for y in range(p):
            if (x * x + a * y * y) % p == (1 + d * x * x * y * y) % p:
                pts.append((x, y))
    return pts


def naive_singular_count(p: int, a: int, d: int) -> int:
    s = 0
    if euler_chi(a * d, p) == 1:
        s += 2
    if euler_chi(d, p) == 1:
        s += 2
    return s


def naive_order(p: int, a: int, d: int) -> int:
    return len(naive_points(p, a, d)) + naive_singular_count(p, a, d)


def _arith(p: int, beta):
    """(add, sub, mul, inverse, lift) of F_p on ints when beta is None,
    else of F_{p^2} on (c0, c1) int pairs with i^2 = beta, by
    `naive_fp2_mul` and `naive_fp2_inverse`; inverse gives None for
    zero, and lift takes an int or a pair into the field."""
    if beta is None:
        return (lambda x, y: (x + y) % p, lambda x, y: (x - y) % p,
                lambda x, y: x * y % p,
                lambda x: pow(x, -1, p) if x % p else None,
                lambda v: v % p)
    return (lambda x, y: ((x[0] + y[0]) % p, (x[1] + y[1]) % p),
            lambda x, y: ((x[0] - y[0]) % p, (x[1] - y[1]) % p),
            lambda x, y: naive_fp2_mul(x, y, p, beta),
            lambda x: naive_fp2_inverse(x, p, beta),
            lambda v: (v[0] % p, v[1] % p) if isinstance(v, tuple)
            else (v % p, 0))


def naive_add(P, Q, p: int, a: int, d: int, beta=None):
    """Modified addition law; returns None when the sum is singular.
    Over F_{p^2} (i^2 = beta) each coordinate is a (c0, c1) pair."""
    add, sub, mul, inv, lift = _arith(p, beta)
    (x1, y1), (x2, y2) = map(lift, P), map(lift, Q)
    t = mul(mul(lift(d), mul(x1, x2)), mul(y1, y2))
    one = lift(1)
    den_x, den_y = inv(sub(one, t)), inv(add(one, t))
    if den_x is None or den_y is None:
        return None
    x3 = mul(sub(mul(x1, x2), mul(lift(a), mul(y1, y2))), den_x)
    return (x3, mul(add(mul(x1, y2), mul(x2, y1)), den_y))


def naive_scalar_mul(k: int, P, p: int, a: int, d: int, beta=None):
    """k*P by k-fold repeated addition (no doubling shortcuts), over F_p
    or, with beta, over F_{p^2}."""
    lift = _arith(p, beta)[4]
    acc = (lift(1), lift(0))
    for _ in range(k):
        acc = naive_add(acc, P, p, a, d, beta)
        if acc is None:
            return None
    return acc


def naive_double_and_add(k: int, P, p: int, a: int, d: int):
    """k*P for k >= 1 along a left-to-right double-and-add ladder, each
    step by `naive_add` (doubling as P + P); None when a step's sum is
    singular.  Its partial sums are multiples of P up to
    k, so it fails only where `naive_scalar_mul` fails too, but it can
    step over a singular multiple that repeated addition meets."""
    acc = P
    for bit in bin(k)[3:]:
        acc = naive_add(acc, acc, p, a, d)
        if acc is not None and bit == "1":
            acc = naive_add(acc, P, p, a, d)
        if acc is None:
            return None
    return acc


def naive_point_order(P, p: int, a: int, d: int) -> int:
    n = 1
    acc = P
    while acc != (1, 0):
        acc = naive_add(acc, P, p, a, d)
        if acc is None:
            raise ValueError(f"order walk of {P} hit a singular point")
        n += 1
    return n


def _montgomery(p: int, a: int, d: int):
    """(A, B) of the Montgomery model B*v^2 = u^3 + A*u^2 + u of E_{a,d},
    A = 2(a+d)/(a-d), B = 4/(a-d), reached through u = (1+x)/(1-x),
    v = u/y, and its chord-and-tangent law, with None the point at
    infinity.  The law is defined on every pair, so it passes the images
    of the Edwards curve's singular points at infinity."""
    c = pow(a - d, -1, p)
    A, B = 2 * (a + d) * c % p, 4 * c % p

    def add(R, S):
        if R is None:
            return S
        if S is None:
            return R
        (u1, v1), (u2, v2) = R, S
        if u1 == u2 and (v1 + v2) % p == 0:
            return None
        if u1 == u2:
            lam = (3 * u1 * u1 + 2 * A * u1 + 1) * pow(2 * B * v1, -1, p)
        else:
            lam = (v2 - v1) * pow(u2 - u1, -1, p)
        u3 = (B * lam * lam - A - u1 - u2) % p
        return (u3, (lam * (u1 - u3) - v1) % p)

    return A, B, add


def _to_montgomery(P, p: int, a: int, d: int):
    """(u, v) of an affine point of E_{a,d} other than (1, 0)."""
    A, B, _ = _montgomery(p, a, d)
    x, y = P[0] % p, P[1] % p
    u = (1 + x) * pow(1 - x, -1, p) % p
    v = u * pow(y, -1, p) % p if y else 0
    assert (B * v * v - u ** 3 - A * u * u - u) % p == 0
    return (u, v)


def montgomery_point_order(P, p: int, a: int, d: int) -> int:
    """Order of P on E_{a,d}, walked on the Montgomery model."""
    a, d = a % p, d % p
    if (P[0] % p, P[1] % p) == (1, 0):
        return 1
    add = _montgomery(p, a, d)[2]
    R0 = _to_montgomery(P, p, a, d)
    n, R = 1, R0
    while R is not None:
        R = add(R, R0)
        n += 1
    return n


def _montgomery_multiple(k: int, P, p: int, a: int, d: int):
    """k*P for k >= 1 on the Montgomery model, by repeated addition of
    the image of P; None is the point at infinity."""
    a, d = a % p, d % p
    add = _montgomery(p, a, d)[2]
    R0 = _to_montgomery(P, p, a, d)
    R = None
    for _ in range(k):
        R = add(R, R0)
    return R


def montgomery_scalar_mul(k: int, P, p: int, a: int, d: int):
    """k*P for k >= 1 by repeated addition on the Montgomery model,
    mapped back by x = (u-1)/(u+1), y = u/v; None when k*P is one of the
    Edwards curve's singular points at infinity (v = 0 with u != 0, or
    u = -1).  Defined wherever k*P is affine, even if some multiple
    below k is not."""
    if (P[0] % p, P[1] % p) == (1, 0):
        return (1, 0)
    R = _montgomery_multiple(k, P, p, a, d)
    if R is None:
        return (1, 0)
    u, v = R
    if (u, v) == (0, 0):
        return (p - 1, 0)
    if v == 0 or (u + 1) % p == 0:
        return None
    return ((u - 1) * pow(u + 1, -1, p) % p, u * pow(v, -1, p) % p)


def montgomery_x_mul(k: int, P, p: int, a: int, d: int):
    """x(k*P) for k >= 1, by repeated addition on the Montgomery model
    and x = (u-1)/(u+1): 1 when k*P = O, None when x is infinite
    (u = -1, the order-4 points at infinity).  Every multiple has an x
    here, the singular points at infinity with a finite x included."""
    if (P[0] % p, P[1] % p) == (1, 0):
        return 1
    R = _montgomery_multiple(k, P, p, a, d)
    if R is None:
        return 1
    u = R[0]
    if (u + 1) % p == 0:
        return None
    return (u - 1) * pow(u + 1, -1, p) % p


def naive_translate_isogeny(P, kernel, p: int, d: int, beta=None, a=1):
    """Odd isogeny of E_{a,d} with kernel {O, +-Q_1, ..., +-Q_s}, by its
    defining product of group-law translates:
    x' = x * prod x(P+Q) x(P-Q) / A^2, y' = a^s y * prod y(P+Q) y(P-Q) / A^2,
    with A the product of the x(Q_i), onto E_{a,d'}.  It is the product
    on E_{1,d/a}, reached by y -> y sqrt(a), which keeps each x(P+Q) and
    gives each y(P+Q) a factor sqrt(a), and back.  For even s the raw
    product is the negation of the reduced rational map, so y' is
    negated to land on the same representative.  Returns None when a
    translate is singular.  Over F_{p^2} (i^2 = beta) each coordinate
    is a (c0, c1) pair."""
    _, sub, mul, inv, lift = _arith(p, beta)
    x, y = map(lift, P)
    a_prod = lift(1)
    for Q in kernel:
        R1 = naive_add(P, Q, p, a, d, beta)
        R2 = naive_add(P, (Q[0], sub(lift(0), lift(Q[1]))), p, a, d, beta)
        if R1 is None or R2 is None:
            return None
        x = mul(mul(x, R1[0]), R2[0])
        y = mul(mul(mul(y, R1[1]), R2[1]), lift(a))
        a_prod = mul(a_prod, lift(Q[0]))
    inv_a2 = inv(mul(a_prod, a_prod))
    x, y = mul(x, inv_a2), mul(y, inv_a2)
    if len(kernel) % 2 == 0:
        y = sub(lift(0), y)
    return (x, y)


def naive_full_map(P, xs, p: int, d: int, beta=None, a=1):
    """The same isogeny by its reduced rational map, from the kernel
    abscissas x_1, ..., x_s alone: with y_i^2 = (1 - x_i^2)/(a - d x_i^2)
    and A the product of the x_i,

        x' = (x/A^2) prod (x^2 - a y_i^2) / (1 - d y_i^2 x^2)
        y' = (-y/A^2) prod (x^2 - x_i^2) / (1 - (d/a) x_i^2 x^2),

    the map of E_{1,d/a} carried to E_{a,d} by y -> y sqrt(a).  The x_i
    are those of a kernel of odd order, none at infinity.  Returns None
    at a pole, where a denominator of either product is zero.  Over
    F_{p^2} (i^2 = beta) each value is a (c0, c1) pair."""
    _, sub, mul, inv, lift = _arith(p, beta)
    one, a, d = lift(1), lift(a), lift(d)
    d_a = mul(d, inv(a))
    x, y = map(lift, P)
    x2 = mul(x, x)
    x_out, y_out, a2 = x, sub(lift(0), y), one
    for xi in map(lift, xs):
        xi2 = mul(xi, xi)
        yi2 = mul(sub(one, xi2), inv(sub(a, mul(d, xi2))))
        den_x, den_y = (inv(sub(one, mul(mul(c, v), x2)))
                        for c, v in ((d, yi2), (d_a, xi2)))
        if den_x is None or den_y is None:
            return None
        x_out = mul(mul(x_out, sub(x2, mul(a, yi2))), den_x)
        y_out = mul(mul(y_out, sub(x2, xi2)), den_y)
        a2 = mul(a2, xi2)
    inv_a2 = inv(a2)
    return mul(x_out, inv_a2), mul(y_out, inv_a2)


def naive_codomain_d(xs, p: int, d: int, l: int, beta=None, a=1):
    """d' = a A^8 (d/a)^l of the degree-l isogeny of E_{a,d} with kernel
    abscissas xs: A^8 d^l of E_{1,d/a}, carried back to the domain's a."""
    _, _, mul, inv, lift = _arith(p, beta)
    out, d_a = lift(a), mul(lift(d), inv(lift(a)))
    for v in [*xs] * 8 + [d_a] * l:
        out = mul(out, lift(v))
    return out


def montgomery_j(a: int, d: int, p: int) -> int:
    """j through the Montgomery model of the isomorphic a = 1 curve:
    A = 2(1 + d/a)/(1 - d/a), j = 256(A^2-3)^3/(A^2-4)."""
    w = d * pow(a, -1, p) % p
    A = 2 * (1 + w) * pow((1 - w) % p, -1, p) % p
    num = 256 * pow((A * A - 3) % p, 3, p) % p
    den = (A * A - 4) % p
    return num * pow(den, -1, p) % p


def naive_fp2_mul(x, y, p: int, beta: int):
    """(x0 + x1*i)(y0 + y1*i) with i^2 = beta, by the schoolbook product
    of (c0, c1) int pairs."""
    x0, x1 = x
    y0, y1 = y
    return ((x0 * y0 + beta * x1 * y1) % p, (x0 * y1 + x1 * y0) % p)


def naive_fp2_square(x, p: int, beta: int):
    return naive_fp2_mul(x, x, p, beta)


def naive_fp2_roots(p: int, beta: int) -> dict:
    """{x: r} over the squares x of F_{p^2} = F_p(i), i^2 = beta, as
    (c0, c1) pairs, r the smaller of the two roots, found by squaring
    every element."""
    roots = {}
    for c0 in range(p):
        for c1 in range(p):
            x = naive_fp2_square((c0, c1), p, beta)
            roots[x] = min((c0, c1), (-c0 % p, -c1 % p))
    return roots


def naive_fp2_inverse(x, p: int, beta: int):
    """x^(p^2 - 2) by repeated squaring of the pair; None for zero."""
    if x[0] % p == 0 and x[1] % p == 0:
        return None
    acc, base, e = (1, 0), x, p * p - 2
    while e:
        if e & 1:
            acc = naive_fp2_mul(acc, base, p, beta)
        base = naive_fp2_square(base, p, beta)
        e >>= 1
    return acc


# ---------------------------------------------------------------------
# Counted oracle: the raw x-line formulas on field elements.
# ---------------------------------------------------------------------

def counted_xdbl(P, c):
    """xonly.xdbl: ((C - D) X^2 Z^2 : e ((C - D) X^2 + C e)) as
    (U - W, U + W), e = Z^2 - X^2; C e is e when C = 1."""
    (X, Z), (num, den) = P, c
    XX, ZZ = X.square(), Z.square()
    ct = num * XX
    e = ZZ - XX
    U, W = ct * ZZ, e * (ct + (e if den == 1 else den * e))
    return U - W, U + W


def counted_xadd(P, Q, D):
    """xonly.xadd: ((Zd - Xd)(s + t)^2 : (Zd + Xd)(s - t)^2) as
    (U - W, U + W), s = X1 Z2, t = Z1 X2."""
    (X1, Z1), (X2, Z2), (Xd, Zd) = P, Q, D
    minus, plus = Zd - Xd, Zd + Xd
    s, t = X1 * Z2, Z1 * X2
    U = minus * (s + t).square()
    W = plus * (s - t).square()
    return U - W, U + W


def counted_odd(P, xs, zs):
    """xonly._odd with its products: (F + G, F - G, plus, minus) with
    plus = prod (x_i Z + z_i X), minus = prod (x_i Z - z_i X),
    F = (X + Z) plus^2 and G = (X - Z) minus^2."""
    X, Z = P
    plus = minus = None
    for x, z in zip(xs, zs):
        u, v = x * Z, z * X
        if plus is None:
            plus, minus = u + v, u - v
        else:
            plus, minus = plus * (u + v), minus * (u - v)
    F = (X + Z) * plus.square()
    G = (X - Z) * minus.square()
    return F + G, F - G, plus, minus


def counted_odd_image(P, xs, zs):
    """xonly.odd_image: the first two values of `counted_odd`."""
    return counted_odd(P, xs, zs)[:2]


def counted_get_3_isog(X1, Z1):
    """xonly.get_3_isog's (D', C') = (Z1 (2X1 + Z1)^3, X1 (2Z1 + X1)^3),
    with 2X1Z1 = (X1 + Z1)^2 - X1^2 - Z1^2."""
    s1, s2 = X1.square(), Z1.square()
    t1 = (X1 + Z1).square() - s1 - s2
    t4 = t1 + t1
    s1_4 = s1 + s1
    s1_4 = s1_4 + s1_4
    s2_4 = s2 + s2
    s2_4 = s2_4 + s2_4
    return (t1 + s2) * (s1_4 + s2 + t4), (t1 + s1) * (s2_4 + s1 + t4)


def counted_odd_codomain(Xs, Zs, D, C, l):
    """xonly.odd_codomain: (D^(l-4) (D X^2)^4, C^(l-4) (C Z^2)^4) for
    X = prod X_i and Z = prod Z_i, with a factor of one left out and the
    power by `**`'s square-and-multiply."""
    out = []
    for V, W in ((Xs, D), (Zs, C)):
        x = V[0]
        for y in V[1:]:
            x = x * y
        t = x.square() if W == 1 else W * x.square()
        t = t.square().square()
        out.append(t if W == 1 else t * W ** (l - 4))
    return tuple(out)


def run_5_isog(P: XZPoint, K1: XZPoint, K2: XZPoint,
               d) -> tuple[XZPoint, ProjParams]:
    """Image point and codomain in one pass, sharing the kernel
    squares.  cost: 21M+12S."""
    image, l1, l2 = _eval_5(P, K1, K2, d)
    return image, get_5_isog(K1, K2, d, (l1, l2))


def _lucas_chain(P: int, Q: int, k: int, n: int) -> tuple[int, int, int]:
    """(U_k, V_k, Q^k) mod the odd n for x^2 - Px + Q and k >= 1, left to
    right: U_2j = U_j V_j, V_2j = V_j^2 - 2Q^j, then for a 1 bit
    U_{j+1} = (P U_j + V_j)/2 and V_{j+1} = (D U_j + P V_j)/2."""
    D = P * P - 4 * Q
    U, V, Qk = 1, P % n, Q % n
    for bit in bin(k)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (P * U + V) % n, (D * U + P * V) % n
            U = U >> 1 if U % 2 == 0 else (U + n) >> 1
            V = V >> 1 if V % 2 == 0 else (V + n) >> 1
            Qk = Qk * Q % n
    return U, V, Qk
