"""Odd-degree isogenies of Edwards curves in the a = 1 form.

A kernel is the subgroup {O, ±Q1, ..., ±Qs} of odd order l = 2s+1; the
codomain parameter is d' = A^8 * d^l with A the product of the kernel
x-coordinates.  Points are evaluated by the reduced one-variable
rational map

     x' = (x/A^2) * prod (x^2 - b_i^2) / (1 - d b_i^2 x^2)
     y' = (-y/A^2) * prod (x^2 - a_i^2) / (1 - d a_i^2 x^2)

with (a_i, b_i) the kernel coordinates.  The -y orientation is the one
the worked small-field mappings pin down.  The defining product of
group-law translates, prod x(P+Q)/x(Q), prod y(P+Q)/x(Q) over the kernel
points Q, is the same isogeny up to sign; the tests keep it as an
independent oracle.

`OddIsogeny.push` evaluates the map on projective triples (X : Y : Z)
with its denominators cleared, so nothing is inverted:

     X' = X * prod (X^2 - b_i^2 Z^2) * prod (Z^2 - d a_i^2 X^2)
     Y' = -Y * prod (X^2 - a_i^2 Z^2) * prod (Z^2 - d b_i^2 X^2)
     Z' = A^2 Z * prod (Z^2 - d b_i^2 X^2) * prod (Z^2 - d a_i^2 X^2)

with a_i^2, b_i^2, d a_i^2 and d b_i^2 computed once per isogeny: 2S and
(8s + 3)M a point.  The map reads the kernel only through (a_i^2, b_i^2),
so a kernel known by its x-coordinates alone, with
b_i^2 = (1 - a_i^2)/(1 - d a_i^2), serves as well as one of full points.

A chain runs its kernel path on the x-line (`xonly`): x-only l-fold
steps, a kernel made affine from x alone with one inversion a step, and
the odd-degree product `odd_image` for its stack.  Only the images it
carries, or a point given to `chain(P)`, go through `push`, and each is
made affine once, at the end; a chain that carries none forms no y_i^2
and no terms of the full map.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from math import isqrt, prod
from operator import mul
from types import MappingProxyType

from .curve import DESK_SCALE_LIMIT, AffinePoint, EdwardsCurve, to_affine
from .errors import (BadKernelGenerator, DeskScaleOnly, DivisionByZero,
                     EvenDegreeUnsupported, ExceptionalInput, InvalidCurve,
                     NotASquare, NotOnCurve)
from .xonly import odd_image, xadd, xdbl, xdbl_y2, xmul


def _require_a1(curve: EdwardsCurve):
    if not (curve.a == 1):
        raise InvalidCurve(
            "isogeny formulas require the a = 1 curve form; "
            "rescale E_{a,d} to E_{1,d/a} first")


def _check_degree(degree: int):
    """The one degree rule of kernels and chains: odd, at least 3 and at
    most DESK_SCALE_LIMIT, as a kernel holds (degree - 1)/2 points."""
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
    order l = 2s+1: their x-coordinates `xs`, with the cached product A.
    A kernel built from a full point keeps the points as `points`; one
    built on the x-line has no y sign, `points` is None, and it carries
    its (x_i^2, y_i^2) instead when `from_x` was asked for them.  `has_y`
    tells whether the y_i^2 come without an inversion of their own."""

    def __init__(self, domain: EdwardsCurve, degree: int, xs: list,
                 points: list[AffinePoint] | None = None,
                 squares: list | None = None):
        self.domain = domain
        self.degree = degree
        self.xs = xs
        self.points = points
        self.A = _product(xs)
        self.has_y = points is not None or squares is not None
        if squares is not None:
            self.x_sq = [x2 for x2, _ in squares]
            self.y_sq = [y2 for _, y2 in squares]

    @classmethod
    def from_generator(cls, Q: AffinePoint, degree: int,
                       domain: EdwardsCurve) -> "OddKernel":
        _require_a1(domain)
        _check_degree(degree)
        if not domain.contains(Q):
            raise NotOnCurve(f"{Q!r} is not on {domain!r}")
        if Q.is_identity():
            raise BadKernelGenerator("kernel generator is the neutral element")
        # Q, 2Q, ..., sQ, projective, stopping at the first that is O;
        # then P = (s+1)Q.
        Q1 = Q.projective()
        multiples = [Q1]
        P = domain.double_proj(Q1)
        while len(multiples) < degree // 2:
            X, Y, Z = P
            if X == Z and Y.is_zero():
                raise BadKernelGenerator(
                    f"generator order divides a proper factor of {degree}")
            multiples.append(P)
            P = domain.add_proj(P, Q1)
        # (s+1)Q = -(sQ) is equivalent to (2s+1)Q = O; together with the
        # non-identity representatives this pins the order to exactly 2s+1.
        X1, Y1, Z1 = P
        Xs, Ys, Zs = multiples[-1]
        if degree == 3:                  # sQ = Q, whose Z is one
            same = X1 == Xs * Z1 and (Y1 + Ys * Z1).is_zero()
        else:
            same = X1 * Zs == Xs * Z1 and (Y1 * Zs + Ys * Z1).is_zero()
        if not same:
            raise BadKernelGenerator(f"generator does not have order {degree}")
        reps = [Q] + [to_affine(P) for P in multiples[1:]]
        return cls(domain, degree, [P.x for P in reps], points=reps)

    @classmethod
    def from_x(cls, K: tuple, degree: int, domain: EdwardsCurve,
               with_y: bool = True) -> "OddKernel":
        """<K> from the x-line point K = (X, Z) of a point on the domain
        (the x-line does not tell the curve from its twist, so that is
        the caller's check).  The same checks as `from_generator`, on x:
        K is not O, no multiple 2K, ..., sK is O, none of K, ..., sK has
        Z = 0, and x((s+1)K) = x(sK), which pins the order to exactly l,
        as x is equal only for opposite points.  So no multiple is one of
        the points at infinity, whose orders are 2 and 4, and a zero y_i^2
        denominator needs no check of its own.  The multiples are taken with
        differences K, which `xadd` needs to differ from O and (-1, 0);
        (-1, 0) itself fails the checks, having 2K = O.  One inversion,
        by Montgomery's trick, makes every x_i = X_i/Z_i affine and, if
        `with_y`, gives y_i^2 = (Z_i^2 - X_i^2)/(Z_i^2 - d X_i^2), which
        only the full map (`OddIsogeny.push`) reads; an affine K, Z = 1,
        adds no Z_1 to it."""
        X, Z = K
        if X == Z:                       # O, or the (0 : 0) of a bad ladder
            raise BadKernelGenerator("kernel generator is the neutral element")
        c, s = domain.field.one - domain.d, degree // 2
        double, num, den = xdbl_y2(K, c)
        multiples = [K, double]          # jK at j - 1
        for j in range(3, s + 2):
            if multiples[-1][0] == multiples[-1][1]:
                raise BadKernelGenerator(
                    f"generator order divides a proper factor of {degree}")
            h = j // 2
            multiples.append(xadd(multiples[h], multiples[h - 1], K)
                             if j % 2 else xdbl(multiples[h - 1], c))
        X1, Z1 = multiples.pop()         # (s+1)K
        if with_y:
            fractions = [(num, den)]
            for X, Z in multiples[1:]:
                XX, ZZ = X.square(), Z.square()
                fractions.append((ZZ - XX, ZZ - domain.d * XX))
            quotients = _divide([f for P, y2 in zip(multiples, fractions)
                                 for f in (P, y2)])
            xs, y_sq = quotients[::2], quotients[1::2]
        else:
            xs, y_sq = _divide(multiples), None
        if X1 != xs[-1] * Z1:
            raise BadKernelGenerator(f"generator does not have order {degree}")
        squares = (None if y_sq is None
                   else [(x.square(), y2) for x, y2 in zip(xs, y_sq)])
        return cls(domain, degree, xs, squares=squares)

    @cached_property
    def x_sq(self) -> list:
        return [x.square() for x in self.xs]

    @cached_property
    def y_sq(self) -> list:
        """y_i^2 of each representative: squared from the points, or,
        for an x-line kernel built without them, (1 - x_i^2)/(1 - d x_i^2)
        with an inversion of its own."""
        if self.points is not None:
            return [P.y.square() for P in self.points]
        one, d = self.domain.field.one, self.domain.d
        return _divide([(one - x2, one - d * x2) for x2 in self.x_sq])

    @property
    def squares(self) -> list:
        """(x_i^2, y_i^2) of each representative, all the full map reads."""
        return list(zip(self.x_sq, self.y_sq))

    @cached_property
    def a_sq(self):
        """A^2; at degree 3, where A = x(Q), the x(Q)^2 of `x_sq`."""
        return self.x_sq[0] if self.degree == 3 else self.A.square()

    def full_points(self) -> list[AffinePoint]:
        """The whole subgroup: O and ±Q_i.  An x-line kernel's ±y_i are
        the two square roots of y_i^2, so it needs no sign."""
        sqrt = self.domain.field.sqrt
        reps = self.points or [AffinePoint(x, sqrt(y2))
                               for x, (_, y2) in zip(self.xs, self.squares)]
        out = [self.domain.identity]
        for P in reps:
            out.append(P)
            out.append(P.neg())
        return out

    def codomain_param(self):
        """d' = A^8 * d^l."""
        a8 = self.a_sq.square().square()
        return a8 * self.domain.d ** self.degree

    def to_json(self) -> dict:
        if self.points is None:
            kernel = [{"x": x.to_str()} for x in self.xs]
        else:
            kernel = [P.to_json() for P in self.points]
        return {"l": self.degree, "kernel": kernel, "A": self.A.to_str()}


class OddIsogeny:
    """A single odd-degree isogeny given by its kernel; callable on
    points of the domain."""

    def __init__(self, kernel: OddKernel):
        self.kernel = kernel
        self.domain = kernel.domain
        self.codomain_d = kernel.codomain_param()
        self.codomain = EdwardsCurve(self.domain.field,
                                     self.domain.field.one, self.codomain_d)
        self._a_sq = kernel.a_sq
        # The full map's terms: now for a kernel with its y_i^2, at the
        # first push for one built without them.
        self._terms = self._map_terms() if kernel.has_y else None

    def _map_terms(self) -> list:
        d = self.domain.d
        return [(a2, b2, d * a2, d * b2) for a2, b2 in self.kernel.squares]

    @property
    def degree(self) -> int:
        return self.kernel.degree

    def __call__(self, P: AffinePoint) -> AffinePoint:
        """phi(P).  P must lie on the domain; it is not checked, as a
        chain pushes every point at every step.  Outside input goes
        through `EdwardsCurve.check_point` first."""
        return to_affine(self.push(P.projective()))

    def push(self, P: tuple) -> tuple:
        """phi on a projective triple (X : Y : Z) of the domain, with no
        inversion; ExceptionalInput at a pole."""
        if self._terms is None:
            self._terms = self._map_terms()
        X, Y, Z = P
        X2, Z2 = X.square(), Z.square()
        terms = self._terms
        num_x = _product(X2 - b2 * Z2 for _, b2, _, _ in terms)
        num_y = _product(X2 - a2 * Z2 for a2, _, _, _ in terms)
        den_x = _product(Z2 - db2 * X2 for _, _, _, db2 in terms)
        den_y = _product(Z2 - da2 * X2 for _, _, da2, _ in terms)
        Z_out = self._a_sq * Z * den_x * den_y
        if Z_out.is_zero():
            raise ExceptionalInput(
                f"{to_affine(P)!r} is a pole of the isogeny")
        return (X * num_x * den_y, -Y * num_y * den_x, Z_out)

    def to_json(self) -> dict:
        out = self.kernel.to_json()
        out["d_prime"] = self.codomain_d.to_str()
        return out


def _product(factors):
    return reduce(mul, factors)


def _divide(fractions: list) -> list:
    """n/d for each pair (n, d), with one inversion by Montgomery's
    trick: 3(k - 1)M for the k denominators other than one, then 1M a
    quotient.  BadKernelGenerator if a denominator is zero: a Z_i or a
    y_i^2 denominator is zero only at a point at infinity, which no
    kernel of odd order holds."""
    dens = [d for _, d in fractions if d != 1]
    if not dens:
        return [n for n, _ in fractions]
    try:
        it = iter(_inverses(dens))
    except DivisionByZero:
        raise BadKernelGenerator("kernel point lies at infinity") from None
    return [n if d == 1 else n * next(it) for n, d in fractions]


def _inverses(dens: list) -> list:
    """1/d for each of the k nonzero d, with one inversion by
    Montgomery's trick: 3(k - 1)M.  DivisionByZero if one is zero."""
    prefix = list(accumulate(dens, mul))
    inv, inverses = prefix[-1].inverse(), [None] * len(dens)
    for i in range(len(dens) - 1, 0, -1):
        inverses[i] = inv * prefix[i - 1]
        inv = inv * dens[i]
    inverses[0] = inv
    return inverses


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
    """Counted base-field M of one l-fold step, `xmul(l, .)`, and of one
    stack point through a degree-l step, `odd_image` with an affine
    kernel, at 3M an F_{p^2} multiplication and 2M a squaring: 29 and 13
    at l = 3, 45 and 22 at l = 5.  `xmul` makes b - 1 `xadd`s (4M + 2S)
    and as many `xdbl`s (3M + 2S), b the bit length of l, one doubling
    fewer when the second bit of l is 0; `odd_image` costs 3sM + 2S,
    s = (l - 1)/2."""
    b = l.bit_length()
    doublings = b - 1 - ((l >> (b - 2)) & 1 == 0)
    return 16 * (b - 1) + 13 * doublings, 9 * (l // 2) + 4


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
    step by the odd-degree product `odd_image`.  So e steps cost
    O(e log e) point operations, not the O(e^2) of multiplying every G_i
    afresh.  The stack holds x-line points (X, Z); each K_i is checked
    and made affine by `OddKernel.from_x`.  G is an affine point or an
    x-line point (X, Z).  As the x-line does not tell the curve from its
    twist, an affine G is checked once to lie on the domain; for an
    (X, Z), which has no y to test, that check is the caller's, as for
    `OddKernel.from_x`.  A product of degrees above the Hasse bound on
    the group order is refused before the tree is planned.  Each step
    checks K_i != O and that K_i has order l_i; as every K_i lies in the
    image of <G>, the composite kernel (prod(degrees) points) lies in <G>
    and holds G, so G has exact order prod(degrees).

    `images`, points of the domain, are pushed through each step's full
    map as it is built and made affine at the end, with one inversion
    for all of them by Montgomery's trick, as `images`; only a chain
    that carries some forms the y_i^2 the full map reads.  Calling
    the chain on a point does the same for that point, forming the y_i^2
    of a chain without images on first use.
    """

    def __init__(self, domain: EdwardsCurve, generator: AffinePoint | tuple,
                 degrees: list[int], images=()):
        _require_a1(domain)
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
        self.domain = domain
        self.degrees = degrees
        self.steps: list[OddIsogeny] = []
        _, plan = chain_strategy(tuple(degrees))
        pushed = [P.projective() for P in images]
        E, stack = domain, [(generator, len(degrees))]
        for i, l in enumerate(degrees):
            T, j = stack[-1]
            c = E.field.one - E.d
            while j > i + 1:
                k = plan[i, j]
                for m in degrees[i + k:j]:
                    T = xmul(m, T, c)
                j = i + k
                stack.append((T, j))
            stack.pop()
            step = OddIsogeny(OddKernel.from_x(T, l, E, with_y=bool(pushed)))
            self.steps.append(step)
            xs = step.kernel.xs
            stack = [(odd_image(P, xs), j) for P, j in stack]
            pushed = [step.push(P) for P in pushed]
            E = step.codomain
        self.codomain = E
        invs = _inverses([Z for _, _, Z in pushed]) if pushed else []
        self.images = [AffinePoint(X * inv, Y * inv)
                       for (X, Y, _), inv in zip(pushed, invs)]

    @property
    def total_degree(self) -> int:
        return prod(self.degrees)

    def __call__(self, P: AffinePoint) -> AffinePoint:
        P = P.projective()
        for step in self.steps:
            P = step.push(P)
        return to_affine(P)

    def to_json(self) -> dict:
        return {"degrees": self.degrees,
                "steps": [s.to_json() for s in self.steps],
                "d_prime": self.codomain.d.to_str()}
