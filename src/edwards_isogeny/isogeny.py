"""Odd-degree isogenies of Edwards curves E_{a,d}.

A kernel is the subgroup {O, ±Q1, ..., ±Qs} of odd order l = 2s+1, kept
as the x-line points (X_i : Z_i) of Q, 2Q, ..., sQ (`xonly`).  The maps
are those of E_{1,d/a}, which y -> y sqrt(a) reaches keeping x, read on
(D : C) = (d : a); the codomain keeps the domain's a, so no sqrt(a) is
taken: it is E_{a,d'}, d' = a A^8 (d/a)^l with A the product of the
kernel x-coordinates x_i, kept as (D' : C'), d' = a D'/C'.  Points are
evaluated with no inversion, x by `odd_image` (Costello and Hisil,
ASIACRYPT 2017) and y by the y-map of the reduced rational map

     y' = (-y/A^2) * prod (x^2 - x_i^2) / (1 - (d/a) x_i^2 x^2),

which reads the x_i only: (7s + 3)M + 4S a point.  An isogeny or a
chain called on points makes their images affine by one inversion for
all; `_affine_views` adds every step's d', kernel x_i and kernel y (of a
kernel from a generator) to it.  The -y orientation is the one the
worked small-field mappings pin down.  The tests check the map against
two raw-integer oracles: the defining product of group-law translates,
prod x(P+Q)/x(Q), a^s prod y(P+Q)/x(Q) over the kernel points Q, and the
full rational map with x' = (x/A^2) * prod (x^2 - a y_i^2) / (1 - d y_i^2 x^2).
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import accumulate, islice
from math import isqrt, prod
from operator import mul
from types import MappingProxyType

from .curve import (DESK_SCALE_LIMIT, AffinePoint, EdwardsCurve,
                    check_parameters)
from .errors import (BadKernelGenerator, DeskScaleOnly, DivisionByZero,
                     EvenDegreeUnsupported, ExceptionalInput, ExceptionalPair,
                     NotASquare, NotOnCurve, check_int)
from .xonly import (FP2, XADD, XDBL, ProjParams, _odd, get_3_isog,
                    odd_codomain, odd_image, odd_rows, recover_xy, xadd, xdbl,
                    xmul)


def _check_degree(degree: int):
    """The one degree rule of kernels and chains: an int, odd, at least 3
    and at most DESK_SCALE_LIMIT, as a kernel holds (degree - 1)/2 points."""
    check_int(degree, "degree")
    if degree % 2 == 0:
        raise EvenDegreeUnsupported(f"degree {degree} is even")
    if degree < 3:
        raise BadKernelGenerator("degree must be an odd integer >= 3")
    if degree > DESK_SCALE_LIMIT:
        raise DeskScaleOnly(
            f"degree {degree} exceeds the kernel limit {DESK_SCALE_LIMIT}")


def order3_division_value(alpha, d):
    """Value of the order-3 division condition 2a + 1 - d*a^3*(2 + a)
    at x-coordinate `alpha`; zero exactly at abscissas of order-3 points."""
    return alpha + alpha + 1 - d * alpha ** 3 * (alpha + 2)


def is_order3_abscissa(alpha, d) -> bool:
    return order3_division_value(alpha, d).is_zero()


class OddKernel:
    """Representatives {Q, 2Q, ..., sQ} of a cyclic subgroup of odd
    order l = 2s+1, as the list `K` of their x-line points (X_i, Z_i).
    Their affine x_i, `xs`, are made on first read by one inversion,
    unless `_affine_views` has set them.  A kernel from a full point Q
    keeps it as `generator`, and its `points`, the representatives with
    their y, come from `_affine_views`; from x alone both are None."""

    def __init__(self, domain: EdwardsCurve, degree: int, K: list):
        self.domain, self.degree, self.K = domain, degree, K
        self.generator = None

    @classmethod
    def from_generator(cls, Q: AffinePoint, degree: int,
                       domain: EdwardsCurve) -> "OddKernel":
        """<Q> for a full point Q of the domain: `from_x` on (x(Q) : 1),
        after the checks a full point allows.  Q lies on the domain, and
        2Q is not a point at infinity, where the affine law raises
        ExceptionalPair and the x-line would report only a wrong order."""
        _check_degree(degree)
        if not domain.contains(Q):
            raise NotOnCurve(f"{Q!r} is not on {domain!r}")
        # 2Q = ((x^2 - a y^2)/(2 - t), 2xy/t)
        t = Q.x.square() + domain._times_a(Q.y.square())
        if t.is_zero() or t == 2:
            raise ExceptionalPair("double lies at infinity")
        kernel = cls.from_x((Q.x, domain.field.one), degree, domain)
        kernel.generator = Q
        return kernel

    @classmethod
    def from_x(cls, K: tuple, degree: int,
               domain: EdwardsCurve) -> "OddKernel":
        """<K> from the x-line point K = (X, Z) of a point on the domain
        (which the x-line cannot tell from its twist: the caller checks),
        with no inversion, by the domain's `xline`, on any E_{a,d}.
        `_check_degree`'s errors come before anything is counted.
        The checks, projectively: K is not O (X = Z), the walk stops at
        the first of 2K, ..., sK that is O, and x((s+1)K) = x(sK).  So K
        has order exactly l: no multiple lies at infinity and no Z_i is
        zero, nor is K the (-1, 0) that `xadd` cannot take as difference.
        cost: `_of_order`'s and an `xdbl` (l = 3) or `xadd` (l = 5)."""
        _check_degree(degree)
        if K[0] == K[1]:                 # O, or the (0 : 0) of a bad ladder
            raise BadKernelGenerator("kernel generator is the neutral element")
        walk = _multiples(K, domain)
        kernel = [next(walk)]
        for M in islice(walk, degree // 2 - 1):          # 2K, ..., sK
            if M[0] == M[1]:
                raise BadKernelGenerator(
                    f"generator order divides a proper factor of {degree}")
            kernel.append(M)
        (X1, Z1), (Xs, Zs) = next(walk), kernel[-1]
        if X1 * Zs != Xs * Z1:
            raise BadKernelGenerator(f"generator does not have order {degree}")
        return cls(domain, degree, kernel)

    @classmethod
    def _of_order(cls, K: tuple, degree: int, domain: EdwardsCurve):
        """<K> unchecked, for K of a proven exact order `degree`: K, ...,
        sK by s - 1 x-line operations, none at l = 3, an `xdbl` at l = 5."""
        return cls(domain, degree, [*islice(_multiples(K, domain),
                                            degree // 2)])

    xs = cached_property(lambda self: _divide(self.K))
    A = cached_property(lambda self: _product(self.xs))

    @cached_property
    def points(self) -> list[AffinePoint] | None:
        """Q, 2Q, ..., sQ with their y, set by `_affine_views` with an
        isogeny's views by one inversion; read first, they build that
        isogeny, codomain and all.  None without a generator."""
        if self.generator is None:
            return None
        _affine_views([OddIsogeny(self)], [])
        return vars(self)["points"]

    def full_points(self) -> list[AffinePoint]:
        """The whole subgroup of a kernel from a generator: O and ±Q_i."""
        return [self.domain.identity] + [Q for P in self.points
                                         for Q in (P, P.neg())]


class _PairCurve(EdwardsCurve):
    """A step's codomain E_{a,d}, with the a of its `domain`, kept as its
    `pair` (D : C), so its `xline` and j read no d; d = a D/C is made on
    first read, as `OddKernel.xs` is.  C = 0, D = 0, D = C raise."""

    def __init__(self, domain: EdwardsCurve, pair: ProjParams):
        check_parameters(pair.C, pair.D)
        self.field, self.a, self._order = domain.field, domain.a, None
        self.pair = pair

    d = cached_property(EdwardsCurve._d_from_pair)


class OddIsogeny:
    """A single odd-degree isogeny given by its kernel; callable on
    points of the domain.  Its codomain (D' : C') is `get_3_isog`'s at
    l = 3, else `odd_codomain`'s ((prod X_i)^8 D^l, (prod Z_i)^8 C^l) over
    the domain's (D : C) = (d : a); its d' = a D'/C' is made on first use."""

    def __init__(self, kernel: OddKernel):
        k = kernel
        self.kernel, self.domain, self.degree = k, k.domain, k.degree
        pair = (get_3_isog(k.K[0]) if k.degree == 3
                else odd_codomain(k.K, *k.domain.pair, k.degree))
        self.codomain = _PairCurve(k.domain, pair)

    codomain_d = property(lambda self: self.codomain.d)

    def __call__(self, P: AffinePoint) -> AffinePoint:
        """phi(P) by `image` and one inversion; ExceptionalInput at a
        pole.  P must lie on the domain; it is not checked, as a chain
        pushes every point at every step.  Outside input goes through
        `EdwardsCurve.check_point` first."""
        return _carry([self], [P])[0][0]

    @cached_property
    def _y_map(self) -> tuple:
        """The y-map's constants: (-1)^(s+1) C^s prod Z_i^2, and each
        (C Z_i^2, D X_i^2), the first times prod X_i^2."""
        k, (D, C), s = self.kernel, self.domain.pair, self.degree // 2
        x2, z2 = ([V.square() for V in W] for W in zip(*k.K))
        cy, cw = C ** s * _product(z2), _product(x2)
        terms = [(C * zz, D * xx) for xx, zz in zip(x2, z2)]
        terms[0] = (terms[0][0] * cw, terms[0][1] * cw)
        return (cy if s % 2 else -cy), terms

    def image(self, P: tuple) -> tuple:
        """phi on (X, Z, Y, W), x = X/Z and y = Y/W, with no inversion:
        (X' : Z') as `odd_image` gives it, and the y-map over x_i and d,

            Y' = -Y C^s prod Z_i^2 prod (Z_i^2 X^2 - X_i^2 Z^2)
            W' = W prod X_i^2 prod (C Z_i^2 Z^2 - D X_i^2 X^2),

        whose product in Y' is (-1)^s that of the two products
        `odd_image` squares, which `_odd` returns with its image.  cost:
        (7s + 3)M + 4S."""
        X, Z, Y, W = P
        Xn, Zn, plus, minus = _odd((X, Z), self.kernel.K, True)
        XX, ZZ = X.square(), Z.square()
        cy, terms = self._y_map
        den = _product(cz2 * ZZ - dx2 * XX for cz2, dx2 in terms)
        return Xn, Zn, Y * cy * (plus * minus), W * den


def _product(factors):
    return reduce(mul, factors)


def _multiples(K: tuple, E: EdwardsCurve):
    """x-line K, 2K, 3K, ... on E without end: jK is twice (j/2)K by
    `xdbl` on `E.xline`, or (h + 1)K + hK, h = j // 2, by `xadd`."""
    m = [K]
    while True:
        yield m[-1]
        h, odd = divmod(len(m) + 1, 2)
        m.append(xadd(m[h], m[h - 1], K) if odd else xdbl(m[h - 1], E.xline))


def _carry(steps: list, points: list, *fractions) -> tuple:
    """`points` pushed through `steps` by `OddIsogeny.image` and made
    affine, with the quotient of each of `fractions`, by one inversion;
    ExceptionalInput if an image lies at infinity."""
    one = steps[0].domain.field.one
    images = [(P.x, one, P.y, one) for P in points]
    for step in steps:
        images = [step.image(P) for P in images]
    if any(V.is_zero() for _, Z, _, W in images for V in (Z, W)):
        raise ExceptionalInput("an image is a point at infinity")
    q = _divide([f for X, Z, Y, W in images for f in ((X, Z), (Y, W))]
                + list(fractions))
    n = 2 * len(images)
    return [AffinePoint(*q[i:i + 2]) for i in range(0, n, 2)], q[n:]


def _affine_views(steps: list, points: list, *fractions) -> tuple:
    """The images of `points` through `steps` and the quotients of
    `fractions`, as `_carry` makes them, with each step's `codomain.d`
    and `kernel.xs` set from the same one inversion, and the `points` of
    a kernel from a generator Q: the y of jQ, j >= 2, by `recover_xy`
    from Q and the x-line jQ and (j+1)Q, x((s+1)Q) = x(sQ) for the last,
    11M + 4S a point."""
    own = []
    for s in steps:
        k, E, Q = s.kernel, s.domain, s.kernel.generator
        K = k.K + k.K[-1:]
        own += [s.codomain.pair, *k.K] + [
            recover_xy(Q, K[j], K[j + 1], E.a, E.d)[1]
            for j in range(1, len(k.K)) if Q is not None]
    images, q = _carry(steps, points, *own, *fractions)
    q = iter(q)
    for s in steps:
        k, n = s.kernel, len(s.kernel.K)
        s.codomain.d = s.codomain._times_a(next(q))
        k.xs = [*islice(q, n)]
        if k.generator is not None:
            ys = [k.generator.y, *islice(q, n - 1)]
            k.points = [*map(AffinePoint, k.xs, ys)]
    return images, list(q)


def _divide(fractions: list) -> list:
    """n/d for each pair (n, d), with one inversion by Montgomery's
    trick: 3(k - 1)M for the k denominators other than one, then 1M a
    quotient.  BadKernelGenerator if a denominator is zero: a kernel's
    Z_i, or the denominator of a y `recover_xy` gives it, is zero only at
    a point at infinity, which no kernel of odd order holds."""
    dens = [d for _, d in fractions if d != 1]
    if not dens:
        return [n for n, _ in fractions]
    prefix = list(accumulate(dens, mul))
    try:
        inv = prefix[-1].inverse()
    except DivisionByZero:
        raise BadKernelGenerator("kernel point lies at infinity") from None
    inverses = [None] * len(dens)
    for i in range(len(dens) - 1, 0, -1):
        inverses[i], inv = inv * prefix[i - 1], inv * dens[i]
    inverses[0] = inv
    it = iter(inverses)
    return [n if d == 1 else n * next(it) for n, d in fractions]


def recover_y(x, curve: EdwardsCurve) -> AffinePoint:
    """Lift an x-coordinate to the curve point with the canonical root
    of y^2 = (1 - x^2)/(a - d*x^2); its negative is the other lift."""
    field = curve.field
    x = field(x)
    x2 = x.square()
    den = curve.a - curve.d * x2
    if den.is_zero():
        raise ExceptionalInput(f"x = {x!r} corresponds to a point at infinity")
    try:
        y = field.sqrt((field.one - x2) / den)
    except NotASquare as exc:
        raise NotOnCurve(f"no point with x = {x!r} on {curve!r}") from exc
    return AffinePoint(x, y)


def _step_weights(l: int) -> tuple[int, int]:
    """Counted base-field M of one l-fold step, `xmul(l, .)` with a
    constant (C - D, C), and of one stack point through a degree-l step,
    `odd_image`, read from the x-line tally rows of F_{p^2}: 32 and 16 at
    l = 3, 48 and 28 at l = 5.  `xmul` makes b - 1 `xadd`s and as many
    `xdbl`s, b the bit length of l, one doubling fewer when the second
    bit of l is 0 (3 base M fewer each on a chain's first curve, whose C
    is one)."""
    b = l.bit_length()
    doublings = b - 1 - ((l >> (b - 2)) & 1 == 0)
    xadd_m, xdbl_m = XADD[FP2][0], XDBL[FP2][0]
    return (xadd_m * (b - 1) + xdbl_m * doublings, odd_rows(l // 2)[FP2][0])


@lru_cache(maxsize=64)
def chain_strategy(degrees: tuple) -> tuple[int, MappingProxyType]:
    """The cheapest strategy tree for a chain of `degrees` (De Feo, Jao
    and Plut, J. Math. Cryptol. 2014, 4.2), weighted by `_step_weights`:
    its model cost in base-field M, and the split k of each stack entry
    (T, j) met before step i, as a read-only {(i, j): k}, since the
    cache hands the same plan to every chain.  Split at k, the steps
    degrees[i:j] cost

        folds(degrees[i+k:j]) + pushes(degrees[i:i+k]) + C(i, i+k) + C(i+k, j):

    l-fold steps take T from j down to i + k, where the left part is
    walked, T is pushed through its steps, and the right part is walked
    from T.  C(i, j) depends only on degrees[i:j], so a uniform list,
    whose intervals of one length are alike, solves one interval a
    length: O(e^2) for e steps, and O(e^3) for a mixed list."""
    e = len(degrees)
    weights = [_step_weights(l) for l in degrees]
    folds = [0, *accumulate(w for w, _ in weights)]
    pushes = [0, *accumulate(w for _, w in weights)]
    # cost[i][n] and split[i][n] are those of degrees[i:i+n]; a uniform
    # list's rows are one shared list, filled from i = 0.
    uniform = len(set(degrees)) == 1
    if uniform:
        cost, split = [[None, 0]] * e, [[None, None]] * e
    else:
        cost = [[None, 0] for _ in degrees]
        split = [[None, None] for _ in degrees]
    for n in range(2, e + 1):
        for i in range(1 if uniform else e - n + 1):
            j = i + n
            best = min((folds[j] - folds[i + k] + pushes[i + k] - pushes[i]
                        + cost[i][k] + cost[i + k][n - k], k)
                       for k in range(1, n))
            cost[i].append(best[0])
            split[i].append(best[1])
    plan, todo = {}, [(0, e)]
    while todo:
        i, j = todo.pop()
        if j - i > 1:
            k = plan[i, j] = split[i][j - i]
            todo += [(i, i + k), (i + k, j)]
    return cost[0][e], MappingProxyType(plan)


class IsogenyChain:
    """Composition of prime-degree isogenies dividing out <G>.

    `degrees` is the execution order, e.g. [3, 3, 5] for a generator of
    order 45 with the 3-part removed first; it is not empty, and each
    degree is odd and at least 3.  Step i's kernel point
    K_i = prod(degrees[i+1:]) * G_i, G_i the image of G, comes from the
    cost-weighted strategy tree of `chain_strategy`: a stack holds
    (T, j) with T = prod(degrees[j:]) * G_i, its top is split at the
    tree's k, one x-only l-fold step (`xmul`) per degree in
    degrees[i+k:j], until j = i + 1, and the rest is pushed through each
    step by `odd_image`: O(e log e) point operations for e steps.  Each
    K_i is kept as (X_i : Z_i) and each codomain as (D' : C'), so nothing
    is inverted.  G is an affine point, checked once to lie on the
    domain, or an x-line point (X, Z), whose check is the caller's.
    Degrees multiplying past the Hasse bound are refused at once.

    Step i is checked, by `OddKernel.from_x`, only when l_i has a prime
    that no earlier degree has; other steps build their representatives
    alone (`OddKernel._of_order`).  That proves as much as checking
    every step.  Let G have order N (on the curve, or its twist for an
    x-line G), L = prod(degrees) and v_q the exponent of a prime q.  Once
    the steps before i are sound, K_i's order has q-part
    q^max(v_q(N) - v_q(L) + v_q(l_i), 0).  Step 0's check gives
    v_q(N) <= v_q(L) for all q, and a checked step v_q(N) = v_q(L) for
    the primes of its degree; the first step holding q is checked, so a
    step whose primes have all been met has order exactly l_i.  Uniform
    chains, [3, 9], [9, 3] and [15, 3] check step 0 alone; [3, 5] checks
    both, as a G of order 3 passes step 0 and leaves K_1 = O.  After the
    last check G has exact order L.
    """

    def __init__(self, domain: EdwardsCurve, generator: AffinePoint | tuple,
                 degrees: list[int]):
        degrees = list(degrees)
        if not degrees:
            raise BadKernelGenerator("a chain needs at least one degree")
        for l in degrees:
            _check_degree(l)
        if prod(degrees) > (isqrt(domain.field.size) + 2) ** 2:
            raise BadKernelGenerator(
                "the degrees multiply past the Hasse bound on the order "
                "of any point")
        if isinstance(generator, AffinePoint):
            if not domain.contains(generator):
                raise NotOnCurve(f"{generator!r} is not on {domain!r}")
            generator = (generator.x, domain.field.one)
        self.domain, self.degrees = domain, degrees
        self.steps: list[OddIsogeny] = []
        _, plan = chain_strategy(tuple(degrees))
        E, stack, met = domain, [(generator, len(degrees))], 1
        for i, l in enumerate(degrees):
            T, j = stack[-1]
            while j > i + 1:
                k = plan[i, j]
                for m in degrees[i + k:j]:
                    T = xmul(m, T, E.xline)
                j = i + k
                stack.append((T, j))
            stack.pop()
            # l has no new prime iff l | met^b, b >= each exponent in l
            step = OddIsogeny((OddKernel.from_x if pow(met, l.bit_length(), l)
                               else OddKernel._of_order)(T, l, E))
            met *= l
            self.steps.append(step)
            stack = [(odd_image(P, step.kernel.K), j) for P, j in stack]
            E = step.codomain
        self.codomain = E

    def __call__(self, P: AffinePoint) -> AffinePoint:
        return _carry(self.steps, [P])[0][0]
