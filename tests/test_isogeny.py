import hashlib
import itertools
import random
from functools import lru_cache, reduce
from math import gcd, prod
from time import perf_counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edwards_isogeny import (COMPLETE, QUADRATIC, TWISTED, AffinePoint,
                             BadKernelGenerator, DeskScaleOnly, EdwardsCurve,
                             EdwardsError, EvenDegreeUnsupported,
                             ExceptionalInput, ExceptionalPair,
                             InvalidParameter, IsogenyChain, NotOnCurve,
                             OddIsogeny, OddKernel, OpCounter, PrimeField,
                             QuadExtField, is_order3_abscissa,
                             is_supersingular, isogeny,
                             order3_division_value, recover_y, setup)
from edwards_isogeny.curve import DESK_SCALE_LIMIT
from edwards_isogeny.isogeny import (_affine_views, _carry, _divide,
                                     _step_weights, chain_strategy)
from edwards_isogeny.sidh import SIDE_A, SIDE_B, count_cyclic_subgroups
from edwards_isogeny.xonly import (ProjParams, XZPoint, get_3_isog,
                                   get_5_isog, odd_codomain, odd_image, xmul)

from conftest import (DESK_PRIMES, assert_cofactor_walk,
                      assert_images_match_the_full_map, beta_of, desk_curves,
                      element_point, oracle_kernel, pt, raw, raw_point,
                      translate_image)
from oracles import (naive_codomain_d, naive_full_map, naive_points,
                     naive_scalar_mul, naive_translate_isogeny)

# Evaluation routes: the library's rational map and the translate-product
# ("additive") oracle.
ROUTES = {"rational": lambda phi, P: phi(P), "additive": translate_image}

# Printed mappings of the worked 3-isogeny (p = 23, d = -1, kernel x = -10).
MAPPINGS_3 = [
    ((3, 6), (-7, 7)), ((3, -6), (-7, -7)), ((6, 3), (7, -7)),
    ((2, 2), (7, 7)), ((9, 10), (0, -1)), ((9, -10), (0, 1)),
    ((10, 9), (-1, 0)), ((-10, 9), (1, 0)), ((-10, -9), (1, 0)),
    ((1, 0), (1, 0)),
]

# Printed mappings of the worked 5-isogeny (p = 19, d = -1, kernel gen (6, 4)).
MAPPINGS_5 = [
    ((2, 8), (0, 1)), ((4, 6), (0, -1)), ((8, 2), (-1, 0)),
    ((6, 4), (1, 0)), ((6, -4), (1, 0)), ((-8, 2), (1, 0)),
    ((-8, -2), (1, 0)), ((1, 0), (1, 0)),
]


@pytest.fixture
def phi3(e23):
    return OddIsogeny(OddKernel.from_generator(pt(e23, -10, 9), 3, e23))


@pytest.fixture
def phi5(e19):
    return OddIsogeny(OddKernel.from_generator(pt(e19, 6, 4), 5, e19))


class TestKernel:
    def test_degree3_representatives(self, e23, phi3):
        ker = phi3.kernel
        assert [(P.x.signed(), P.y.signed()) for P in ker.points] == [(-10, 9)]
        assert ker.A == -10
        assert ker.A.square() == 8
        full = {(P.x.signed(), P.y.signed()) for P in ker.full_points()}
        assert full == {(1, 0), (-10, 9), (-10, -9)}

    def test_degree5_representatives(self, e19, phi5):
        ker = phi5.kernel
        assert [(P.x.signed(), P.y.signed()) for P in ker.points] == \
            [(6, 4), (-8, -2)]
        assert ker.A == 9            # 6 * (-8) = -48 = 9 mod 19
        assert ker.A.square() == 5
        full = {(P.x.signed(), P.y.signed()) for P in ker.full_points()}
        assert full == {(1, 0), (6, 4), (6, -4), (-8, -2), (-8, 2)}

    def test_x_line_kernels_have_no_points(self, e19, phi5):
        """A kernel from x alone keeps no generator, so its `points` is
        None: one from `from_x`, and each step of a chain, checked
        (`from_x`) or not (`_of_order`), here [3, 3, 5] on E_{2,4}/F_359."""
        G = phi5.kernel.generator
        kernels = [OddKernel.from_x((G.x, e19.field.one), 5, e19)]
        field = PrimeField(359)
        curve = EdwardsCurve(field, field(2), field(4))
        G = next(P for P in curve.points() if curve.point_order(P) == 45)
        kernels += [s.kernel for s in IsogenyChain(curve, G, [3, 3, 5]).steps]
        for kernel in kernels:
            assert kernel.generator is None and kernel.points is None

    @pytest.mark.parametrize("p,l,gen,cost", [
        (23, 3, (-10, 9), (0, 0, 0, 0)),
        (19, 5, (6, 4), (16, 4, 1, 14)),
        (83, 7, (7, 3), (35, 8, 1, 28))], ids=["l3", "l5", "l7"])
    def test_lone_points_read_costs_its_own_views(self, p, l, gen, cost):
        """`points` read before any `_affine_views` divides the kernel's
        own fractions alone: the y of 2Q, ..., sQ by `recover_xy`
        (11M + 4S each) and one `_divide`, and no codomain is made.
        The points are jQ, as `_affine_views` sets them too."""
        field = PrimeField(p)
        curve = EdwardsCurve(field, field.one, field(-1))
        G = pt(curve, *gen)
        phi, twin = (OddIsogeny(OddKernel.from_generator(G, l, curve))
                     for _ in range(2))
        with field.counting(OpCounter()) as ctx:
            points = phi.kernel.points
        assert ctx.as_dict() == dict(zip("MSIA", cost))
        assert "d" not in vars(phi.codomain)
        assert phi.kernel.xs == [P.x for P in points]
        assert points == [curve.scalar_mul(j, G) for j in range(1, l // 2 + 1)]
        _affine_views([twin], [])
        assert twin.kernel.points == points

    @pytest.mark.parametrize("first", ["A", "xs", "points"])
    def test_views_share_one_divide_in_either_order(self, phi5, first):
        """On the F_19 order-5 kernel, `A` or `xs` read before `points`
        takes the one `_divide` of `_fractions` that `points` makes:
        16M + 4S + 1I + 14A, and 1M for the product A, in any order."""
        kernel = phi5.kernel
        with phi5.domain.field.counting(OpCounter()) as ctx:
            getattr(kernel, first)
            A, points = kernel.A, kernel.points
        assert ctx.as_dict() == {"M": 17, "S": 4, "I": 1, "A": 14}
        assert kernel.xs == [P.x for P in points]
        assert A == points[0].x * points[1].x

    def test_kernel_point_relation(self, phi3, phi5):
        """beta^2 = (1 - alpha^2)/(1 - d*alpha^2) for every representative."""
        for phi in (phi3, phi5):
            d = phi.domain.d
            one = phi.domain.field.one
            for Q in phi.kernel.points:
                a2 = Q.x.square()
                assert Q.y.square() == (one - a2) / (one - d * a2)

    def test_rejects_neutral(self, e23):
        with pytest.raises(BadKernelGenerator):
            OddKernel.from_generator(e23.identity, 3, e23)

    def test_rejects_wrong_order(self, e23):
        with pytest.raises(BadKernelGenerator):
            OddKernel.from_generator(pt(e23, 2, 2), 3, e23)   # order 8
        with pytest.raises(BadKernelGenerator):
            OddKernel.from_generator(pt(e23, -10, 9), 5, e23)  # order 3

    def test_rejects_even_degree(self, e23):
        with pytest.raises(EvenDegreeUnsupported):
            OddKernel.from_generator(pt(e23, -1, 0), 2, e23)

    def test_rejects_off_curve(self, e23):
        with pytest.raises(NotOnCurve):
            OddKernel.from_generator(pt(e23, 3, 7), 3, e23)

    def test_rejects_neutral_off_a1(self, f23):
        """Off a = 1 the neutral element is refused as it is on a = 1."""
        curve = EdwardsCurve(f23, f23(5), f23(7))
        with pytest.raises(BadKernelGenerator):
            OddKernel.from_generator(pt(curve, 1, 0), 3, curve)

    @pytest.mark.parametrize("p,a,d,xy,l", [
        (19, 4, 2, (10, 8), 5), (23, 2, 1, (9, 10), 3)])
    def test_from_x_off_a1(self, p, a, d, xy, l):
        """Points of order l off a = 1, on a complete and a quadratic
        curve, give the oracles' kernel x_i and d' = a A^8 (d/a)^l, on
        E_{a,d'}: the domain's a is kept."""
        field = PrimeField(p)
        curve = EdwardsCurve(field, field(a), field(d))
        P = pt(curve, *xy)
        assert curve.point_order(P) == l
        phi = OddIsogeny(OddKernel.from_x((P.x, field.one), l, curve))
        xs = [Q[0] for Q in oracle_kernel(xy, l, p, d, a=a)]
        assert [x.value for x in phi.kernel.xs] == xs
        assert phi.codomain.d == naive_codomain_d(xs, p, d, l, a=a)
        assert phi.codomain.a == a

    def test_stops_at_first_identity(self, e23):
        """An order-3 generator with degree 200001 stops at 3Q = O: the
        on-curve and double checks, then one x-line doubling and one
        addition, not 100,000."""
        ctx = OpCounter()
        with e23.field.counting(ctx), pytest.raises(
                BadKernelGenerator, match="proper factor of 200001"):
            OddKernel.from_generator(pt(e23, -10, 9), 200001, e23)
        assert ctx.as_dict() == {"M": 9, "S": 8, "I": 0, "A": 14}

    def test_rejects_degree_above_desk_scale(self, e23):
        """A kernel holds (degree - 1)/2 points, so the degree is capped
        before any arithmetic."""
        degree = DESK_SCALE_LIMIT + 1 + DESK_SCALE_LIMIT % 2
        ctx = OpCounter()
        with e23.field.counting(ctx), pytest.raises(DeskScaleOnly):
            OddKernel.from_generator(pt(e23, -10, 9), degree, e23)
        assert ctx.snapshot() == (0,) * 8

    @pytest.mark.parametrize("build,shown", [
        (lambda E, G: IsogenyChain(E, G, "3"), "'3'"),
        (lambda E, G: IsogenyChain(E, G, [3.0]), "3.0"),
        (lambda E, G: OddKernel.from_x((G.x, E.field.one), 3.0, E), "3.0"),
        (lambda E, G: IsogenyChain(E, G, [True]), "True")],
        ids=["chain-str", "chain-float", "from_x-float", "chain-bool"])
    def test_non_int_degree_is_invalid_parameter(self, e23, build, shown):
        """A degree that is not an int, a bool included, is named in an
        InvalidParameter, before anything is counted."""
        ctx = OpCounter()
        with e23.field.counting(ctx), pytest.raises(
                InvalidParameter, match=f"degree {shown} is not an int"):
            build(e23, pt(e23, -10, 9))
        assert ctx.snapshot() == (0,) * 8


class TestCodomainParam:
    def test_degree3(self, phi3):
        # A^8 d^3 = 8^4 * (-1) = -2 mod 23
        assert phi3.codomain_d == -2

    def test_degree5_sign(self, phi5, f19):
        """A^8 d^5 = 5^4 * (-1)^5; 5^4 = 625 = -2 mod 19, so d' = +2.
        The printed value -2 fails the membership check below, so +2 is
        the value under which the published image points lie on the
        codomain."""
        assert phi5.codomain_d == 2
        assert phi5.codomain_d != f19(-2)
        for x, y in [(4, 5), (7, 9), (5, 4), (9, 7)]:
            assert phi5.codomain.contains(pt(phi5.codomain, x, y))
        bad = EdwardsCurve(f19, f19.one, f19(-2))
        assert not all(bad.contains(pt(bad, x, y))
                       for x, y in [(4, 5), (7, 9)])

    def test_one_pair_type(self, e23, e19, phi3, phi5):
        """Every (D : C) is a ProjParams that unpacks as (D, C): the
        x-line codomains, a curve's own (d : a), and a step's codomain,
        whose d' is its D'/C'."""
        K3 = XZPoint(e23.field(-10), e23.field.one)
        K5 = [XZPoint(e19.field(x), e19.field.one) for x in (6, -8)]
        pairs = [get_3_isog(K3), get_5_isog(*K5, e19.d),
                 odd_codomain(K5, *e19.pair, 5), e23.pair]
        for pair in pairs:
            assert type(pair) is ProjParams
            D, C = pair
            assert (D, C) == (pair.D, pair.C)
        assert e23.pair == (e23.d, e23.a)
        assert e23.xline == (e23.a - e23.d, e23.a)
        for phi in (phi3, phi5):
            assert type(phi.codomain.pair) is ProjParams
            assert phi.codomain.pair.d_prime() == phi.codomain_d
        assert pairs[1].d_prime() == pairs[2].d_prime() == phi5.codomain_d

    def test_second_3_isogeny(self, f23):
        """Walking on from the image curve: kernel x = -9 on d = -2
        gives d' = (-9)^8 * (-2)^3 = 13 * (-8) = 11 mod 23."""
        domain = EdwardsCurve(f23, f23.one, f23(-2))
        ker = OddKernel.from_generator(pt(domain, -9, 11), 3, domain)
        assert OddIsogeny(ker).codomain_d == 11

    def test_same_subgroup_same_codomain(self, e19):
        """Generators of one subgroup give the same d'."""
        R = pt(e19, 6, 4)
        k1 = OddKernel.from_generator(R, 5, e19)
        k2 = OddKernel.from_generator(e19.double(R), 5, e19)
        assert OddIsogeny(k1).codomain_d == OddIsogeny(k2).codomain_d


class TestEvalWorkedMappings:
    @pytest.mark.parametrize("route", ["rational", "additive"])
    @pytest.mark.parametrize("src,dst", MAPPINGS_3)
    def test_degree3(self, phi3, route, src, dst):
        img = ROUTES[route](phi3, pt(phi3.domain, *src))
        assert (img.x.signed(), img.y.signed()) == dst

    @pytest.mark.parametrize("route", ["rational", "additive"])
    @pytest.mark.parametrize("src,dst", MAPPINGS_5)
    def test_degree5(self, phi5, route, src, dst):
        img = ROUTES[route](phi5, pt(phi5.domain, *src))
        assert (img.x.signed(), img.y.signed()) == dst


class TestEvalProperties:
    def test_mode_equivalence_exhaustive(self, phi3, phi5):
        for phi in (phi3, phi5):
            for P in phi.domain.points():
                assert phi(P) == translate_image(phi, P)

    def test_homomorphism_exhaustive(self, phi3, phi5):
        for phi in (phi3, phi5):
            dom, cod = phi.domain, phi.codomain
            for P in dom.points():
                for Q in dom.points():
                    assert phi(dom.add(P, Q)) == cod.add(phi(P), phi(Q))

    def test_kernel_annihilation(self, phi3, phi5):
        for phi in (phi3, phi5):
            for Q in phi.kernel.full_points():
                assert phi(Q).is_identity()

    def test_compression_ratio(self, phi3, phi5):
        """Every image point has exactly l preimages."""
        for phi in (phi3, phi5):
            images = {}
            for P in phi.domain.points():
                img = phi(P)
                key = (img.x.value, img.y.value)
                images[key] = images.get(key, 0) + 1
            assert set(images.values()) == {phi.degree}

    def test_image_membership(self, phi3, phi5):
        for phi in (phi3, phi5):
            for P in phi.domain.points():
                assert phi.codomain.contains(phi(P))

    def test_sign_symmetry(self, phi3):
        """phi(+-x, +-y) = (+-x', +-y') with matching signs."""
        dom = phi3.domain
        for P in dom.points():
            img = phi3(P)
            flipped_y = phi3(AffinePoint(P.x, -P.y))
            assert flipped_y == AffinePoint(img.x, -img.y)
            flipped_x = phi3(AffinePoint(-P.x, P.y))
            assert flipped_x == AffinePoint(-img.x, img.y)

    def test_class_preservation_complete(self, phi3, phi5):
        for phi in (phi3, phi5):
            assert phi.codomain.class_tag == phi.domain.class_tag == "complete"

    def test_class_preservation_quadratic(self, f23):
        """A quadratic-class domain maps to a quadratic-class codomain;
        odd-order points evaluate cleanly, even-order points may be
        poles (their images are singular)."""
        domain = EdwardsCurve(f23, f23.one, f23(2))
        gen = pt(domain, -5, 10)
        phi = OddIsogeny(OddKernel.from_generator(gen, 3, domain))
        assert domain.class_tag == QUADRATIC
        assert phi.codomain.class_tag == QUADRATIC
        assert phi.codomain_d == -10
        poles = 0
        for P in domain.points():
            try:
                assert phi.codomain.contains(phi(P))
            except ExceptionalInput:
                poles += 1
        assert poles == 8

    def test_parity_transport_degree7(self):
        """General odd degree: a 7-isogeny sends odd-order points to
        odd-order points (p = 83, order 84 = 4*3*7)."""
        field = PrimeField(83)
        curve = EdwardsCurve(field, field.one, field(-1))
        assert curve.order() == 84
        phi = OddIsogeny(OddKernel.from_generator(pt(curve, 7, 3), 7, curve))
        moved = 0
        for P in curve.points():
            if curve.point_order(P) % 2 == 1:
                assert phi.codomain.point_order(phi(P)) % 2 == 1
                moved += 1
        assert moved == curve.order() // 4   # the odd-order subgroup
        for P in curve.points():
            assert phi(P) == translate_image(phi, P)


@lru_cache(maxsize=None)
def a1_curves_with_torsion(l: int) -> list[tuple[int, int]]:
    """(p, d) of every desk curve E_{1,d} whose order l divides; both
    classes an a = 1 curve can have (complete and quadratic) occur."""
    out = []
    for p in DESK_PRIMES:
        field = PrimeField(p)
        out += [(p, d) for d in range(2, p)
                if EdwardsCurve(field, field.one, field(d)).order() % l == 0]
    return out


@lru_cache(maxsize=1)
def order15_curves() -> list[tuple[int, int]]:
    return a1_curves_with_torsion(15)


def a1_curve(p: int, d: int) -> EdwardsCurve:
    field = PrimeField(p)
    return EdwardsCurve(field, field.one, field(d))


def _valuation(n: int, q: int) -> int:
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def annihilated_by(curve, P, k: int) -> bool:
    """k*P = O; False when the ladder meets a singular point."""
    try:
        return curve.scalar_mul(k, P).is_identity()
    except ExceptionalPair:
        return False


class TestProjectiveEvaluation:
    @settings(max_examples=60)
    @given(l=st.sampled_from([3, 5]), data=st.data())
    def test_call_matches_translate_oracle(self, l, data):
        """phi(P) equals the translate product on random kernels, and
        raises ExceptionalInput exactly where a translate is singular."""
        curve = a1_curve(*data.draw(
            st.sampled_from(a1_curves_with_torsion(l))))
        gens = [P for P in curve.points()
                if not P.is_identity() and annihilated_by(curve, P, l)]
        phi = OddIsogeny(OddKernel.from_generator(
            data.draw(st.sampled_from(gens)), l, curve))
        p, d = curve.field.p, curve.d.value
        kernel = oracle_kernel(raw_point(phi.kernel.generator), l, p, d)
        for P in data.draw(st.lists(st.sampled_from(curve.points()),
                                    min_size=1, max_size=8)):
            want = naive_translate_isogeny(raw_point(P), kernel, p, d)
            if want is None:
                with pytest.raises(ExceptionalInput):
                    phi(P)
            else:
                assert phi(P) == pt(phi.codomain, *want)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_chain_matches_composed_steps(self, data):
        """A chain's projective push equals its steps' affine calls
        composed one by one, poles included."""
        curve = a1_curve(*data.draw(st.sampled_from(
            a1_curves_with_torsion(3) + a1_curves_with_torsion(5))))
        G, degrees = draw_smooth_generator(curve, data)
        chain = IsogenyChain(curve, G, degrees)
        for P in data.draw(st.lists(st.sampled_from(curve.points()),
                                    min_size=1, max_size=6)):
            try:
                want = reduce(lambda Q, step: step(Q), chain.steps, P)
            except ExceptionalInput:
                with pytest.raises(ExceptionalInput):
                    chain(P)
            else:
                assert chain(P) == want

    @pytest.mark.parametrize("phi_name,xy", [("phi3", (3, 6)),
                                             ("phi5", (4, 6))],
                             ids=["phi3", "phi5"])
    def test_call_costs(self, request, phi_name, xy):
        """phi(P) on a = 1 is two `odd_image`s, of x(P) and y(P), 8sM + 4S
        with s = (l - 1)/2 and no y-map constants, and one inversion of
        the two denominators, 5M + I when neither is one, as at these P."""
        phi = request.getfixturevalue(phi_name)
        P, s = pt(phi.domain, *xy), phi.degree // 2
        with phi.domain.field.counting(OpCounter()) as ctx:
            phi(P)
        assert (ctx.m, ctx.s, ctx.i) == (8 * s + 5, 4, 1)


def draw_smooth_generator(curve, data) -> tuple:
    """A drawn point of curve whose `point_order` is 3^a 5^b > 1, with
    that order's prime factors in a drawn order."""
    gens = {}
    for P in curve.points():
        n = curve.point_order(P)
        degrees = [q for q in (3, 5) for _ in range(_valuation(n, q))]
        if degrees and prod(degrees) == n:
            gens[P] = degrees
    assume(gens)
    G = data.draw(st.sampled_from(list(gens)))
    return G, data.draw(st.permutations(gens[G]))


def line(P, lam: int = 1) -> tuple:
    """The x-line point (lam*x : lam) of an affine point."""
    return (P.x * lam, P.x.field(lam))


def spy_on_from_x(monkeypatch) -> list:
    """The degrees `OddKernel.from_x` is called with from now on."""
    calls, from_x = [], OddKernel.from_x
    monkeypatch.setattr(OddKernel, "from_x", staticmethod(
        lambda K, l, E: calls.append(l) or from_x(K, l, E)))
    return calls


class TestXLineKernel:
    """`OddKernel.from_x` against `from_generator`, and the chain's
    odd-degree product against the full map."""

    @pytest.mark.parametrize("l", [3, 5, 7, 9, 15])
    def test_accepts_what_from_generator_accepts(self, l):
        """Every point P of the first 16 a = 1 desk curves whose order l
        divides, as a generator of degree l: `from_x` and
        `from_generator` accept exactly the points of order l by
        repeated addition on raw ints, and then give the x_i, A and
        d' = A^8 d^l of those multiples, `from_generator` also its
        representatives with their signs and the subgroup; every other
        point raises BadKernelGenerator (ExceptionalPair from
        `from_generator` where 2P lies at infinity)."""
        accepted = 0
        for p, d in a1_curves_with_torsion(l)[:16]:
            curve = a1_curve(p, d)
            field = curve.field
            for P in curve.points():
                multiples = [naive_scalar_mul(j, raw_point(P), p, 1, d)
                             for j in range(1, l + 1)]
                if (None in multiples or (1, 0) in multiples[:-1]
                        or multiples[-1] != (1, 0)):
                    with pytest.raises(BadKernelGenerator):
                        OddKernel.from_x(line(P, 3), l, curve)
                    with pytest.raises((BadKernelGenerator, ExceptionalPair)):
                        OddKernel.from_generator(P, l, curve)
                    continue
                reps = multiples[:l // 2]
                xs = [x for x, _ in reps]
                from_gen = OddKernel.from_generator(P, l, curve)
                for got in (OddKernel.from_x(line(P, 3), l, curve), from_gen):
                    assert [raw(x) for x in got.xs] == xs
                    assert raw(got.A) == prod(xs) % p
                    assert raw(OddIsogeny(got).codomain_d) == (
                        naive_codomain_d(xs, p, d, l))
                assert from_gen.points == [element_point(field, Q)
                                           for Q in reps]
                assert set(from_gen.full_points()) == {
                    element_point(field, Q) for Q in multiples}
                accepted += 1
        assert accepted > 0

    @pytest.mark.parametrize("l", [3, 5, 7])
    def test_odd_image_matches_call(self, l):
        """x of phi(P) for every point of every a = 1 desk curve with
        l-torsion up to p = 59 and one generator each, the image point
        scaled, and phi(P) itself, against the raw full map; phi raises
        ExceptionalInput at its poles."""
        checked = 0
        for p, d in a1_curves_with_torsion(l):
            if p > 59:
                continue
            curve = a1_curve(p, d)
            G = next(P for P in curve.points() if not P.is_identity()
                     and annihilated_by(curve, P, l))
            phi = OddIsogeny(OddKernel.from_generator(G, l, curve))
            xs = [Q[0] for Q in oracle_kernel(raw_point(G), l, p, d)]
            for P in curve.points():
                want = naive_full_map(raw_point(P), xs, p, d)
                if want is None:
                    with pytest.raises(ExceptionalInput):
                        phi(P)
                    continue
                want = element_point(curve.field, want)
                assert phi(P) == want
                X, Z = odd_image(line(P, 5), phi.kernel.K)
                assert X == want.x * Z
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("name,K,l,want", [
        ("projective_3", (-10 * 4, 4), 3, (6, 2, 1, 5)),
        ("affine_3", (-10, 1), 3, (5, 2, 0, 5)),
        ("projective_5", (6 * 3, 3), 5, (15, 4, 1, 11)),
    ])
    def test_costs(self, e23, e19, name, K, l, want):
        """(M, S, I, A) of building a kernel on the x-line and reading
        its affine view, A = x1 * x2 included: one inversion, for the
        view, and none when K is affine."""
        curve = e23 if l == 3 else e19
        K = tuple(map(curve.field, K))
        with curve.field.counting(OpCounter()) as ctx:
            OddKernel.from_x(K, l, curve).A
        assert (ctx.m, ctx.s, ctx.i, ctx.a) == want

    @pytest.mark.parametrize("l,error", [
        (1, BadKernelGenerator), (2, EvenDegreeUnsupported),
        (0, EvenDegreeUnsupported), (-1, BadKernelGenerator),
        (-3, BadKernelGenerator)])
    def test_rejects_bad_degrees(self, e23, l, error):
        """`from_x` refuses a degree that is not an odd integer >= 3
        before anything is counted, even for a point of order 3, whose
        x-line multiples would pass its order checks at l = 1, 2, 0, -1
        and -3."""
        ctx = OpCounter()
        with e23.field.counting(ctx), pytest.raises(error):
            OddKernel.from_x((e23.field(-10), e23.field(1)), l, e23)
        assert ctx.snapshot() == (0,) * 8

    @pytest.mark.parametrize("name,K,l,kernel,codomain", [
        ("projective_3", (-10 * 4, 4), 3, (5, 2, 0, 5), (2, 3, 0, 14)),
        ("affine_3", (-10, 1), 3, (5, 2, 0, 5), (2, 3, 0, 14)),
        ("projective_5", (6 * 3, 3), 5, (9, 4, 0, 11), (4, 6, 0, 0)),
    ])
    def test_costs_without_y(self, e23, e19, name, K, l, kernel, codomain):
        """(M, S, I, A) of a kernel built on the x-line, which forms no
        y_i^2 and inverts nothing, and of the OddIsogeny on it, which
        forms its codomain pair only: `get_3_isog`'s 2M + 3S at l = 3,
        `odd_codomain`'s 3M + 3S and 1M + 3S for C = 1 at l = 5."""
        curve = e23 if l == 3 else e19
        K = tuple(map(curve.field, K))
        with curve.field.counting(OpCounter()) as ctx:
            built = OddKernel.from_x(K, l, curve)
        assert (ctx.m, ctx.s, ctx.i, ctx.a) == kernel
        with curve.field.counting(OpCounter()) as ctx:
            OddIsogeny(built)
        assert (ctx.m, ctx.s, ctx.i, ctx.a) == codomain


def fp2_kernel_generator(params, l):
    """A point of order l on setup(3, 2)'s curve over F_{2699^2}: 9 P_A
    or 5 P_B, whose bases have orders 27 and 25."""
    E = params.curve
    return E.scalar_mul(9, params.basis_a.P) if l == 3 else E.scalar_mul(
        5, params.basis_b.P)


def fp2_points(params, n: int = 6) -> list:
    """The four basis points of setup(3, 2) and n seeded random points."""
    E, rng, out = params.curve, random.Random(5), []
    while len(out) < n:
        try:
            out.append(recover_y(E.field.random_element(rng), E))
        except (ExceptionalInput, NotOnCurve):
            pass
    a, b = params.basis_a, params.basis_b
    return [a.P, a.Q, b.P, b.Q] + out


class TestOneRoute:
    """A kernel from a full point runs on the x-line, as a chain's does:
    no second, full-point route."""

    @pytest.mark.parametrize("where,l", [("F_23", 3), ("F_2699^2", 3),
                                         ("F_2699^2", 5)])
    def test_full_point_law_is_never_reached(self, where, l, monkeypatch):
        """With `double` and `add` patched to raise, a kernel is built
        from a full generator and its isogeny called on points, each image
        the raw translate product's; its `points` are not formed until
        read, and are then the oracle's multiples with their signs."""
        if where == "F_23":
            field = PrimeField(23)
            E = EdwardsCurve(field, field.one, field(-1))
            G, points = pt(E, -10, 9), E.points()
        else:
            params = setup(3, 2, seed=1)
            E, field = params.curve, params.field
            G, points = fp2_kernel_generator(params, l), fp2_points(params)
        p, d, beta = field.p, raw(E.d), beta_of(field)
        kernel = oracle_kernel(raw_point(G), l, p, d, beta)
        want = [element_point(field, naive_translate_isogeny(
            raw_point(P), kernel, p, d, beta)) for P in points]

        def refuse(self, *args):
            raise AssertionError("full-point law called")

        monkeypatch.setattr(EdwardsCurve, "double", refuse)
        monkeypatch.setattr(EdwardsCurve, "add", refuse)
        phi = OddIsogeny(OddKernel.from_generator(G, l, E))
        assert [phi(P) for P in points] == want
        assert "points" not in vars(phi.kernel)
        assert phi.kernel.points == [element_point(field, Q) for Q in kernel]


class TestFullMapOracle:
    """`oracles.naive_full_map` against the translate product, both on
    raw ints."""

    @pytest.mark.parametrize("p,d,gen,l,poles", [
        (23, -1, (-10, 9), 3, 0), (19, -1, (6, 4), 5, 0),
        (23, 2, (-5, 10), 3, 8)])
    def test_matches_the_translate_product(self, p, d, gen, l, poles):
        """Every point of the worked curves at p = 23 and p = 19 (d = -1)
        and of the quadratic E_{1,2} over F_23, whose 3-isogeny has 8
        poles: the same image, or None at both."""
        d %= p
        kernel = oracle_kernel(gen, l, p, d)
        points = naive_points(p, 1, d)
        got = [naive_full_map(P, [x for x, _ in kernel], p, d)
               for P in points]
        assert got == [naive_translate_isogeny(P, kernel, p, d)
                       for P in points]
        assert got.count(None) == poles

    @pytest.mark.parametrize("l", [3, 5])
    def test_matches_over_fp2(self, l):
        """Over F_{2699^2} on a setup(3, 2) kernel: the basis, random
        points and the poles, the points whose x makes a denominator
        1 - d v x^2 zero for v = x_i^2 or y_i^2."""
        params = setup(3, 2, seed=1)
        E, field = params.curve, params.field
        p, beta, d = field.p, field.beta, raw(E.d)
        kernel = oracle_kernel(raw_point(fp2_kernel_generator(params, l)),
                               l, p, d, beta)
        points = [raw_point(P) for P in fp2_points(params)]
        for v in (c for Q in kernel for c in Q):
            x = field.sqrt((E.d * field(*v).square()).inverse())
            for sign in (1, -1):
                try:
                    points.append(raw_point(recover_y(x * sign, E)))
                except NotOnCurve:
                    pass
        got = [naive_full_map(P, [x for x, _ in kernel], p, d, beta)
               for P in points]
        assert got == [naive_translate_isogeny(P, kernel, p, d, beta)
                       for P in points]
        assert None in got


ORACLE_PRIMES = [p for p in DESK_PRIMES if p <= 83]


class TestEveryCurveForm:
    """Kernels, single isogenies and chains on E_{a,d} as it stands, a
    off one and on every class, against the raw-int oracles on that a."""

    @settings(max_examples=120)
    @given(curve=desk_curves(primes=ORACLE_PRIMES), data=st.data())
    def test_isogeny_matches_the_oracles(self, curve, data):
        """For a drawn l in {3, 5, 7} that divides the curve order and a
        point Q of order l: the kernel is the oracles' Q, ..., sQ, y and
        all; the codomain is E_{a,d'} with the domain's a and class and
        d' = a A^8 (d/a)^l; phi(P) is the translate product and the full
        map, lies on the codomain, and raises ExceptionalInput exactly at
        their common poles; and the one-step chain from Q agrees."""
        degrees = [l for l in (3, 5, 7) if curve.order() % l == 0]
        assume(degrees)
        l = data.draw(st.sampled_from(degrees))
        points = curve.points()
        Q = data.draw(st.sampled_from(
            [P for P in points if curve.point_order(P) == l]))
        p, a, d = curve.field.p, curve.a.value, curve.d.value
        phi = OddIsogeny(OddKernel.from_generator(Q, l, curve))
        chain = IsogenyChain(curve, Q, [l])
        kernel = oracle_kernel(raw_point(Q), l, p, d, a=a)
        xs = [x for x, _ in kernel]
        assert [raw_point(P) for P in phi.kernel.points] == kernel
        E = phi.codomain
        assert (E.a, E.class_tag) == (curve.a, curve.class_tag)
        assert E.d == chain.codomain.d == naive_codomain_d(xs, p, d, l, a=a)
        for P in data.draw(st.lists(st.sampled_from(points),
                                    min_size=1, max_size=6)):
            want = naive_translate_isogeny(raw_point(P), kernel, p, d, a=a)
            assert naive_full_map(raw_point(P), xs, p, d, a=a) == want
            if want is None:
                for f in (phi, chain):
                    with pytest.raises(ExceptionalInput):
                        f(P)
            else:
                assert phi(P) == chain(P) == pt(E, *want)
                assert E.contains(phi(P))

    @pytest.mark.parametrize("a,d,order,degrees,want", [
        (2, 4, 45, [3, 3, 5], (QUADRATIC, 2, -103, 178)),
        (7, 14, 15, [5, 3], (TWISTED, 7, -20, -47))])
    def test_quadratic_family_chain(self, a, d, order, degrees, want):
        """p = 359 = 8 * 3^2 * 5 - 1 is of the paper's quadratic family:
        the quadratic E_{2,4} and the twisted E_{7,14} over F_359 are
        supersingular, of order 360.  A chain from the first point of
        the given order reaches a supersingular curve of the same class
        with the domain's a, and its kernels, d' and images are the
        oracles'."""
        field = PrimeField(359)
        curve = EdwardsCurve(field, field(a), field(d))
        points = curve.points()
        G = next(P for P in points if curve.point_order(P) == order)
        E = IsogenyChain(curve, G, degrees).codomain
        assert (E.class_tag, E.a, E.d, E.j_invariant()) == want
        assert is_supersingular(curve) and is_supersingular(E)
        assert_cofactor_walk(curve, G, degrees)
        assert_images_match_the_full_map(curve, G, degrees, points[::9])

    def test_diagnostics_add_nothing(self):
        """The order, the singular-point census, the special points, a
        point check and the identity reads (`repr`, `==`, `hash`,
        `to_json`, `class_tag`) on the codomain of E_{2,4}/F_359's
        [3, 3, 5] chain each add nothing to the counter and leave its d
        unmade, so a later read of d costs its 1 I + 2 M (D'/C', then
        times a) whether or not one ran first; `==` leaves the other
        curve's d unmade too.  The order of a plain curve adds nothing
        either, and counting its cyclic subgroups leaves no `xline` made,
        so a chain on it costs the same after the count as without it."""
        field, zero = PrimeField(359), {"M": 0, "S": 0, "I": 0, "A": 0}
        curve = EdwardsCurve(field, field(2), field(4))
        G = next(P for P in curve.points() if curve.point_order(P) == 45)
        twin = IsogenyChain(curve, G, [3, 3, 5]).codomain
        for diagnostic in (lambda E: None, EdwardsCurve.order,
                           EdwardsCurve.singular_count,
                           EdwardsCurve.special_points,
                           lambda E: E.check_point(E.identity),
                           repr, hash, EdwardsCurve.to_json,
                           lambda E: E.class_tag, lambda E: E == twin,
                           twin.__eq__):
            E = IsogenyChain(curve, G, [3, 3, 5]).codomain
            with field.counting(OpCounter()) as ctx:
                diagnostic(E)
            assert ctx.as_dict() == zero
            with field.counting(OpCounter()) as ctx:
                E.d
            assert ctx.as_dict() == {"M": 2, "S": 0, "I": 1, "A": 0}
        with field.counting(OpCounter()) as ctx:
            twin.d
        assert ctx.as_dict() == {"M": 2, "S": 0, "I": 1, "A": 0}
        assert E == twin and E.order() == 360
        with field.counting(OpCounter()) as ctx:
            assert EdwardsCurve(field, field(2), field(4)).order() == 360
        assert ctx.as_dict() == zero

        def chain_counts(before) -> dict:
            E = EdwardsCurve(field, field(2), field(4))
            before(E)
            with field.counting(OpCounter()) as ctx:
                IsogenyChain(E, G, [3, 3, 5])
            return ctx.as_dict()
        assert (chain_counts(lambda E: count_cyclic_subgroups(E, 3))
                == chain_counts(lambda E: None))


class TestDivisionPolynomial:
    def test_worked_root(self, f23):
        assert order3_division_value(f23(-10), f23(-1)) == 0
        assert is_order3_abscissa(f23(-10), f23(-1))

    def test_unit_abscissa(self, f23):
        # value at alpha = 1 is 3 - 3d, nonzero whenever d != 1
        for d in (2, 5, -1, -2):
            assert order3_division_value(f23(1), f23(d)) == 3 - 3 * f23(d)
            assert not is_order3_abscissa(f23(1), f23(d))

    def test_roots_match_enumeration(self, f23):
        """Exhaustive at p = 23: the roots that lift to curve points are
        exactly the abscissas of order-3 points."""
        for dv in (2, 5, -1, -2):
            curve = EdwardsCurve(f23, f23.one, f23(dv))
            order3_x = set()
            for P in curve.points():
                if P.is_identity():
                    continue
                try:
                    if curve.scalar_mul(3, P).is_identity():
                        order3_x.add(P.x.value)
                except ExceptionalPair:
                    pass
            roots_with_points = set()
            for alpha in f23.elements():
                if not is_order3_abscissa(alpha, curve.d):
                    continue
                try:
                    recover_y(alpha, curve)
                    roots_with_points.add(alpha.value)
                except (NotOnCurve, ExceptionalInput):
                    pass
            assert roots_with_points == order3_x


class TestRecoverY:
    def test_neutral_abscissa(self, e23):
        assert recover_y(e23.field(1), e23) == e23.identity

    def test_listed_point(self, e23):
        # y^2 = (1 - 4)/(1 + 4) = 4, so y = +-2; the canonical root is 2
        P = recover_y(e23.field(2), e23)
        assert P == pt(e23, 2, 2)
        assert recover_y(e23.field(2), e23).neg() == pt(e23, 2, -2)

    def test_not_on_curve(self, e23):
        with pytest.raises(NotOnCurve):
            recover_y(e23.field(4), e23)   # x = 4 is not an abscissa

    def test_singular_abscissa(self, f23):
        curve = EdwardsCurve(f23, f23.one, f23(2))
        with pytest.raises(ExceptionalInput):
            recover_y(f23(9), curve)       # 9^2 = 12 = 1/d mod 23


class TestChain:
    @pytest.mark.parametrize("degrees,error", [
        ([], BadKernelGenerator),
        ([3, 1], BadKernelGenerator),
        ([3, -3], BadKernelGenerator),
        ([3, 4], EvenDegreeUnsupported),
        ([3, DESK_SCALE_LIMIT + 1 + DESK_SCALE_LIMIT % 2], DeskScaleOnly),
    ], ids=["empty", "one", "negative", "even", "above_desk_scale"])
    def test_rejects_degrees(self, degrees, error):
        """The kernel's degree rule, on every degree and before any
        arithmetic; an empty list is no chain, even for G of order 15."""
        field = PrimeField(59)
        curve = EdwardsCurve(field, field.one, field(-1))
        ctx = OpCounter()
        with field.counting(ctx), pytest.raises(error):
            IsogenyChain(curve, pt(curve, 7, 5), degrees)
        assert ctx.as_dict() == {"M": 0, "S": 0, "I": 0, "A": 0}

    def test_two_step_9_chain(self):
        """Two 3-steps from an order-9 generator kill exactly <G>."""
        field = PrimeField(37)
        curve = EdwardsCurve(field, field.one, field(14))
        assert curve.order() == 36
        G = pt(curve, 3, 8)
        assert curve.point_order(G) == 9
        chain = IsogenyChain(curve, G, [3, 3])
        assert [s.degree for s in chain.steps] == [3, 3]
        killed = [P for P in curve.points() if chain(P).is_identity()]
        assert len(killed) == 9
        subgroup = {tuple(map(lambda c: c.value, curve.scalar_mul(k, G)))
                    for k in range(9)}
        assert {tuple(map(lambda c: c.value, P)) for P in killed} == subgroup

    def test_composition_order_independent(self):
        """3-then-5 and 5-then-3 from one order-15 generator reach
        curves with the same j-invariant."""
        field = PrimeField(59)
        curve = EdwardsCurve(field, field.one, field(-1))
        G = pt(curve, 7, 5)
        assert curve.point_order(G) == 15
        c35 = IsogenyChain(curve, G, [3, 5])
        c53 = IsogenyChain(curve, G, [5, 3])
        assert c35.codomain.j_invariant() == c53.codomain.j_invariant()

    def test_chain_is_homomorphism(self):
        field = PrimeField(59)
        curve = EdwardsCurve(field, field.one, field(-1))
        chain = IsogenyChain(curve, pt(curve, 7, 5), [3, 5])
        pts = curve.points()
        for P in pts[::5]:
            for Q in pts[::7]:
                assert (chain(curve.add(P, Q))
                        == chain.codomain.add(chain(P), chain(Q)))

    def test_rejects_wrong_order(self, e23):
        with pytest.raises(BadKernelGenerator):
            IsogenyChain(e23, pt(e23, 2, 2), [3])       # order 8
        with pytest.raises(BadKernelGenerator):
            IsogenyChain(e23, pt(e23, -10, 9), [3, 3])  # order 3, not 9
        # Mixed degrees: a G of order 3 over F_{p^2}, affine or (x, 1),
        # fails at the step whose prime it lacks, first or second.
        params = setup(3, 2, seed=1)
        E = params.curve
        G = E.scalar_mul(9, params.basis_a.P)
        assert not G.is_identity() and E.scalar_mul(3, G).is_identity()
        for gen in (G, (G.x, E.field.one)):
            for degrees in ([3, 5], [5, 3]):
                with pytest.raises(BadKernelGenerator):
                    IsogenyChain(E, gen, degrees)

    @pytest.mark.parametrize("degrees,checked", [
        ([3, 5], [3, 5]), ([5, 3, 3, 5], [5, 3]), ([9, 3], [9]),
        ([15, 3], [15]), ([3, 15], [3, 15])])
    def test_checks_a_step_only_for_a_new_prime(self, degrees, checked,
                                                monkeypatch):
        """`OddKernel.from_x` runs at exactly the steps whose degree has a
        prime that no earlier degree has, on a generator of order
        prod(degrees) over F_{2699^2}, which the chain accepts."""
        params = setup(3, 2, seed=1)
        E, L = params.curve, prod(degrees)
        G = E.add(E.scalar_mul(27 // gcd(L, 27), params.basis_a.P),
                  E.scalar_mul(25 // gcd(L, 25), params.basis_b.P))
        calls = spy_on_from_x(monkeypatch)
        IsogenyChain(E, G, degrees)
        assert calls == checked

    @pytest.mark.parametrize("side", [SIDE_A, SIDE_B])
    def test_uniform_chain_checks_step_0_alone(self, side, monkeypatch):
        """SIDH's 74- and 55-step chains at 247 bits run the full check
        once, at step 0."""
        p = 4 * 3 ** 74 * 5 ** 55 - 1
        params = setup(74, 55, seed=1, max_p=p)
        basis = params.basis(side)
        calls = spy_on_from_x(monkeypatch)
        chain = IsogenyChain(params.curve, basis.P,
                             [basis.degree] * basis.exponent)
        assert len(chain.steps) == basis.exponent
        assert calls == [basis.degree]

    def test_checking_new_primes_only_changes_nothing(self, e23, e19,
                                                      monkeypatch):
        """x-line generators, every x of F_23 and F_19 (twist points
        included) and a seeded sample of (lam*x : lam) on setup(3, 2)'s
        curve of orders 3^i 5^j and of random points, against each degree
        list of length 1 to 3 from {3, 5, 9, 15}.  An accepted chain's
        kernels pass `OddKernel.from_x` over their steps' domains with the
        same representatives, and a refused one raises the type that the
        chain checked at every step (`_of_order` made `from_x`) raises."""
        params, rng = setup(3, 2, seed=1), random.Random(23)
        E, A, B = params.curve, params.basis_a, params.basis_b

        def draw(basis, n):
            u, v = rng.randrange(n), rng.randrange(n)
            return E.add(E.scalar_mul(u, basis.P), E.scalar_mul(v, basis.Q))

        sample = [E.add(E.scalar_mul(3 ** i, draw(A, 27)),
                        E.scalar_mul(5 ** j, draw(B, 25)))
                  for i in range(4) for j in range(3) for _ in range(2)]
        sample += fp2_points(params)[4:]
        generators = [(C, (C.field(x), C.field.one))
                      for C in (e23, e19) for x in range(C.field.p)]
        generators += [(E, line(G, rng.randrange(1, params.p)))
                       for G in sample]
        lists = [list(t) for n in (1, 2, 3)
                 for t in itertools.product((3, 5, 9, 15), repeat=n)]

        def outcome(C, G, degrees):
            try:
                return IsogenyChain(C, G, degrees)
            except EdwardsError as exc:
                return type(exc)

        cases = [(C, G, ds) for C, G in generators for ds in lists]
        got = [outcome(*case) for case in cases]
        with monkeypatch.context() as patched:
            patched.setattr(OddKernel, "_of_order", OddKernel.from_x)
            want = [outcome(*case) for case in cases]
        accepted = 0
        for chain, checked in zip(got, want):
            if isinstance(chain, type):
                assert chain is checked
                continue
            accepted += 1
            assert not isinstance(checked, type)
            assert ([s.codomain.pair for s in chain.steps]
                    == [s.codomain.pair for s in checked.steps])
            for step in chain.steps:
                k = step.kernel
                full = OddKernel.from_x(k.K[0], k.degree, step.domain)
                assert full.K == k.K
        assert accepted > 100

    @pytest.mark.parametrize("xy,order", [((0, 1), 4), ((-1, 0), 2),
                                          ((1, 0), 1)])
    def test_rejects_generators_of_order_at_most_four(self, e23, xy, order):
        """Affine x-line kernels at the edge: (0, 1), whose Z and y^2
        denominator are both one, so nothing is inverted; (-1, 0), where
        xadd is undefined; and O."""
        assert e23.point_order(pt(e23, *xy)) == order
        with pytest.raises(BadKernelGenerator):
            IsogenyChain(e23, pt(e23, *xy), [3])
        with pytest.raises(BadKernelGenerator):
            IsogenyChain(e23, pt(e23, *xy), [5])

    @pytest.mark.parametrize("degree", [3, 5])
    def test_rejects_generator_whose_double_lies_at_infinity(self, f23,
                                                             degree):
        """(3, 4) has order 4 on the quadratic E_{1,4} over F_23 and 2Q is
        a singular point at infinity, whose y^2 denominator is zero:
        BadKernelGenerator, where `from_generator` raises ExceptionalPair
        and no inversion of zero is tried; a chain that forms no y^2
        rejects it by the order check."""
        curve = EdwardsCurve(f23, f23.one, f23(4))
        with pytest.raises(BadKernelGenerator):
            IsogenyChain(curve, pt(curve, 3, 4), [degree])

    def test_rejects_off_curve_generator(self, e23):
        """The x-line cannot tell E from its twist, so the chain checks
        its generator once: (5, 5) is not on E_{-1} over F_23."""
        with pytest.raises(NotOnCurve):
            IsogenyChain(e23, pt(e23, 5, 5), [3, 3])

    @settings(max_examples=100)
    @given(curve=desk_curves(), data=st.data())
    def test_even_order_generators_are_typed_errors(self, curve, data):
        """A generator with an even-order part fails with
        BadKernelGenerator, whatever the odd degrees; never
        DivisionByZero.  The drawn E_{a,d} is of any class."""
        G = data.draw(st.sampled_from(curve.points()))
        assume(curve.point_order(G) % 2 == 0)
        degrees = data.draw(st.lists(st.sampled_from([3, 5, 7]),
                                     min_size=1, max_size=3))
        with pytest.raises(BadKernelGenerator):
            IsogenyChain(curve, G, degrees)

    def test_rejects_degrees_past_hasse_bound(self, e23):
        """No point over F_23 has order 81 > (sqrt(23) + 1)^2, so
        [3, 3, 3, 3] is refused before any arithmetic."""
        ctx = OpCounter()
        with e23.field.counting(ctx), pytest.raises(BadKernelGenerator):
            IsogenyChain(e23, pt(e23, -10, 9), [3, 3, 3, 3])
        assert ctx.as_dict() == {"M": 0, "S": 0, "I": 0, "A": 0}

    @pytest.mark.parametrize("entry", [
        lambda E, G: IsogenyChain(E, G, [3]),
        lambda E, G: IsogenyChain(E, G, [3, 3]),
        lambda E, G: OddKernel.from_x(G, 3, E),
        lambda E, G: OddKernel.from_generator(G, 3, E)],
        ids=["chain", "chain-3-3", "from_x", "from_generator"])
    @pytest.mark.parametrize("G", [(1, 2), None, "12", (1, 2, 3)],
                             ids=["int-pair", "none", "str", "triple"])
    def test_mistyped_generator_is_invalid_parameter(self, e23, entry, G):
        """A generator that is not a pair of field elements raises
        InvalidParameter naming it, before anything is counted; (1, 2)
        was an AttributeError from deep in the x-line or `contains`."""
        with e23.field.counting(OpCounter()) as ctx:
            with pytest.raises(InvalidParameter, match="generator"):
                entry(e23, G)
        assert ctx.as_dict() == {"M": 0, "S": 0, "I": 0, "A": 0}

    @pytest.mark.parametrize("push", [lambda chain: chain.steps[0],
                                      lambda chain: chain],
                             ids=["phi", "chain"])
    @pytest.mark.parametrize("P", [(1, 2), None], ids=["int-pair", "none"])
    def test_mistyped_point_is_invalid_parameter(self, e23, push, P):
        """An isogeny or chain called on what is not a pair of field
        elements raises InvalidParameter naming the point, before anything
        is counted; it was an AttributeError from `_carry`."""
        f = push(IsogenyChain(e23, pt(e23, -10, 9), [3]))
        with e23.field.counting(OpCounter()) as ctx:
            with pytest.raises(InvalidParameter, match="point"):
                f(P)
        assert ctx.as_dict() == {"M": 0, "S": 0, "I": 0, "A": 0}

    @pytest.mark.parametrize("args,name", [
        (lambda E, G: (E, G, 3), "degrees"),
        (lambda E, G: (None, G, [3]), "domain")],
        ids=["int-degrees", "no-domain"])
    def test_mistyped_chain_argument_is_invalid_parameter(self, e23, args,
                                                          name):
        """IsogenyChain(E, G, 3) was a TypeError and IsogenyChain(None, G,
        [3]) an AttributeError; each raises InvalidParameter naming the
        argument, before anything is counted."""
        with e23.field.counting(OpCounter()) as ctx:
            with pytest.raises(InvalidParameter, match=name):
                IsogenyChain(*args(e23, pt(e23, -10, 9)))
        assert ctx.as_dict() == {"M": 0, "S": 0, "I": 0, "A": 0}

    @pytest.mark.parametrize("entry", [
        lambda D, G: OddKernel.from_x((G.x, G.x.field.one), 3, D),
        lambda D, G: OddKernel.from_generator(G, 3, D)],
        ids=["from_x", "from_generator"])
    @pytest.mark.parametrize("domain", [None, "E", 23],
                             ids=["none", "str", "int"])
    def test_non_curve_domain_is_invalid_parameter(self, e23, entry, domain):
        """A kernel's domain that is not an EdwardsCurve raises
        InvalidParameter naming it, as IsogenyChain's does, before
        anything is counted; from_x(K, 3, None) was an AttributeError."""
        with e23.field.counting(OpCounter()) as ctx:
            with pytest.raises(InvalidParameter, match="domain"):
                entry(domain, pt(e23, -10, 9))
        assert ctx.as_dict() == {"M": 0, "S": 0, "I": 0, "A": 0}

    @settings(max_examples=60)
    @given(curve=desk_curves(), data=st.data())
    def test_images_match_call(self, curve, data):
        """Points pushed together by `_carry` come out as chain(P) does
        for each of them, on every curve class, with the quotient of the
        last (D' : C') = (d' : a) carried with them; `_carry` raises
        ExceptionalInput exactly when some chain(P) does."""
        G, degrees = draw_smooth_generator(curve, data)
        points = data.draw(st.lists(st.sampled_from(curve.points()),
                                    min_size=1, max_size=4))
        chain = IsogenyChain(curve, G, degrees)
        try:
            want = [chain(P) for P in points]
        except ExceptionalInput:
            with pytest.raises(ExceptionalInput):
                _carry(chain.steps, points, chain.codomain.pair)
        else:
            carried, (d,) = _carry(chain.steps, points, chain.codomain.pair)
            assert carried == want
            assert d == chain.codomain.d / curve.a

    @settings(max_examples=40)
    @given(curve=desk_curves(), data=st.data())
    def test_x_line_generator(self, curve, data):
        """A generator given as an x-line point (X, Z), any scaling, gives
        the chain of the affine point: the same kernels, codomain and
        images of points pushed by `_carry`, which raises for both chains
        or for neither."""
        G, degrees = draw_smooth_generator(curve, data)
        points = data.draw(st.lists(st.sampled_from(curve.points()),
                                    max_size=2))
        lam = curve.field(data.draw(st.integers(1, curve.field.p - 1)))
        want = IsogenyChain(curve, G, degrees)
        got = IsogenyChain(curve, (G.x * lam, lam), degrees)
        assert ([s.kernel.xs for s in got.steps]
                == [s.kernel.xs for s in want.steps])
        assert got.codomain.d == want.codomain.d
        try:
            want_images = _carry(want.steps, points)[0]
        except ExceptionalInput:
            with pytest.raises(ExceptionalInput):
                _carry(got.steps, points)
        else:
            assert _carry(got.steps, points)[0] == want_images

    def test_x_line_generator_is_not_checked(self, e23, monkeypatch):
        """The x-line cannot tell E from its twist, and an (X, Z)
        generator has no y to test: its on-curve check is the caller's, so
        the chain never calls `contains` for it."""
        G = pt(e23, -10, 9)
        want = IsogenyChain(e23, G, [3]).codomain.d

        def refuse(self, P):
            raise AssertionError("contains called")

        monkeypatch.setattr(EdwardsCurve, "contains", refuse)
        assert IsogenyChain(e23, (G.x, e23.field.one), [3]).codomain.d == want

    @settings(max_examples=40)
    @given(data=st.data())
    def test_chain_matches_the_oracles(self, data):
        """On every a = 1 desk curve with a point of order 15, for such a
        G and the degrees [3, 5] or [5, 3]: each step's kernel x and d'
        are the full-point oracle's, and points pushed by `_carry` and
        by chain(P) are the steps' full maps composed, poles
        included.  `_affine_views` on a fresh chain gives chain(P)'s
        images and each step's own `kernel.xs` and `codomain_d`."""
        curve = a1_curve(*data.draw(st.sampled_from(order15_curves())))
        G = data.draw(st.sampled_from(
            [P for P in curve.points() if curve.point_order(P) == 15]))
        degrees = data.draw(st.permutations([3, 5]))
        points = data.draw(st.lists(st.sampled_from(curve.points()),
                                    min_size=1, max_size=4))
        assert_cofactor_walk(curve, G, degrees)
        assert_images_match_the_full_map(curve, G, degrees, points)
        fresh, views = (IsogenyChain(curve, G, degrees) for _ in range(2))
        try:
            want = [fresh(P) for P in points]
        except ExceptionalInput:
            with pytest.raises(ExceptionalInput):
                _affine_views(views.steps, points)
        else:
            assert _affine_views(views.steps, points) == (want, [])
            assert ([(s.kernel.xs, s.codomain_d) for s in views.steps]
                    == [(s.kernel.xs, s.codomain_d) for s in fresh.steps])

    @pytest.mark.parametrize("i,cost", [(0, (10, 4, 0)), (1, (17, 4, 0))])
    def test_image_costs(self, i, cost):
        """`OddIsogeny.image` costs (7s + 3)M + 4S over F_{p^2} a point,
        with no inversion, once the step's y-map constants are formed:
        the degree-3 and degree-5 steps of a chain over F_{59^2}."""
        params = setup(1, 1, seed=11)
        E, a, b = params.curve, params.basis_a, params.basis_b
        chain = IsogenyChain(E, E.add(a.P, b.P), [3, 5])
        step, P = chain.steps[i], b.Q
        point = (P.x * 3, E.field(3), P.y * 5, E.field(5))
        step._y_map
        with E.field.counting(OpCounter()) as ctx:
            step.image(point)
        assert (ctx.ext_m, ctx.ext_s, ctx.ext_i) == cost

    def test_no_images_no_full_map(self, e23):
        """A chain forms no affine view: its kernels stay (X_i : Z_i) and
        its codomains (D' : C').  chain(P) pushes x(P) and y(P) by
        `odd_image`, which reads neither view, to the raw full map's point."""
        G, P = pt(e23, -10, 9), pt(e23, 3, 6)
        chain = IsogenyChain(e23, G, [3])
        step = chain.steps[0]
        assert "xs" not in vars(step.kernel)
        assert "d" not in vars(step.codomain)
        assert chain(P) == pt(e23, *naive_full_map((3, 6), [-10], 23, -1))
        assert "xs" not in vars(step.kernel)
        assert "d" not in vars(step.codomain)


def y_map_push(steps, points) -> list:
    """Each point pushed by `OddIsogeny.image` and made affine by one
    `_divide`, or None where its image lies at infinity: the route
    `_carry` takes off a = 1."""
    one = steps[0].domain.field.one
    images = [(P.x, one, P.y, one) for P in points]
    for step in steps:
        images = [step.image(P) for P in images]
    finite = [not (Z.is_zero() or W.is_zero()) for _, Z, _, W in images]
    q = iter(_divide([f for (X, Z, Y, W), ok in zip(images, finite) if ok
                      for f in ((X, Z), (Y, W))]))
    return [AffinePoint(next(q), next(q)) if ok else None for ok in finite]


CARRY_DEGREES = [(3,), (5,), (7,), (9,), (3, 3), (5, 3)]
FP2_DESK_PRIMES = [p for p in DESK_PRIMES if p % 4 == 3]


def lift_to_fp2(curve, points) -> tuple:
    """The a = 1 curve over F_{p^2} of an F_p curve, and its points."""
    field = QuadExtField(curve.field)
    return (EdwardsCurve(field, field.one, field(curve.d.value)),
            [AffinePoint(field(P.x.value), field(P.y.value)) for P in points])


class TestXLineCarry:
    """On a = 1, `_carry` pushes y(P) as x(P - F), F = (0, 1) of order 4,
    by `odd_image`: the y-map's points, with no y-map."""

    @settings(max_examples=100)
    @given(ext=st.booleans(), data=st.data())
    def test_matches_the_y_map_and_the_oracle(self, ext, data):
        """On an a = 1 desk curve, over F_p or over F_{p^2}, a chain of
        each list of `CARRY_DEGREES` that a point of the F_p curve
        generates carries each point as the y-map route and the composed
        raw full maps do, and raises ExceptionalInput for exactly the
        points whose image either route puts at infinity.  The points are
        all of the F_p curve's, and over F_{p^2} drawn ones and the poles
        1 - d x_1^2 x^2 = 0 of step 0."""
        curve = data.draw(desk_curves(
            classes=(COMPLETE, QUADRATIC), a_one=True,
            primes=FP2_DESK_PRIMES if ext else DESK_PRIMES))
        gens, points = {}, curve.points()
        for P in points:
            n = curve.point_order(P)
            for degrees in CARRY_DEGREES:
                if prod(degrees) == n:
                    gens.setdefault(degrees, []).append(P)
        assume(gens)
        drawn = data.draw(st.lists(st.tuples(
            st.integers(0, curve.field.p - 1),
            st.integers(1, curve.field.p - 1)), max_size=4)) if ext else []
        for degrees, Gs in sorted(gens.items()):
            on = [data.draw(st.sampled_from(Gs)), *points]
            self.check_carry(*(lift_to_fp2(curve, on) if ext else (curve, on)),
                             list(degrees), drawn)

    @staticmethod
    def check_carry(curve, points, degrees, drawn):
        """The chain of `degrees` from points[0], the pushes of the rest,
        of the points recover_y lifts from the (c0, c1) of `drawn`, and
        over F_{p^2} of the poles of step 0, compared route by route."""
        G, *points = points
        chain = IsogenyChain(curve, G, degrees)
        F, x1 = curve.field, chain.steps[0].kernel.xs[0]
        extra = [F(*c) for c in drawn]
        if isinstance(F, QuadExtField):
            pole = F.sqrt((curve.d * x1.square()).inverse())
            extra += [pole, -pole]
        for x in extra:
            try:
                points.append(recover_y(x, curve))
            except (ExceptionalInput, NotOnCurve):
                pass
        assert_images_match_the_full_map(curve, G, degrees, points)
        want = y_map_push(chain.steps, points)
        for P, Q in zip(points, want):
            if Q is None:
                with pytest.raises(ExceptionalInput):
                    _carry(chain.steps, [P])
            else:
                assert _carry(chain.steps, [P]) == ([Q], [])
        finite = [P for P, Q in zip(points, want) if Q is not None]
        assert _carry(chain.steps, finite)[0] == [Q for Q in want if Q]

    @pytest.mark.parametrize("l", [3, 5, 7, 9])
    def test_order4_point_goes_to_a_signed_one(self, l):
        """phi((0, 1)) = (0, (-1)^(s+1)) for l = 2s + 1, the y-map at
        x = 0, as the raw full map and the y-map route give it: on the
        first a = 1 desk curve with a point of order l."""
        curve, G = next((E, P) for E in map(a1_curve, *zip(
            *a1_curves_with_torsion(l))) for P in E.points()
            if E.point_order(P) == l)
        phi = OddIsogeny(OddKernel.from_generator(G, l, curve))
        F, p, d = pt(curve, 0, 1), curve.field.p, raw(curve.d)
        want = pt(curve, 0, (-1) ** (l // 2 + 1))
        assert phi(F) == want
        assert y_map_push([phi], [F]) == [want]
        assert want == element_point(curve.field, naive_full_map(
            raw_point(F), [raw(x) for x in phi.kernel.xs], p, d))


def strategy_cost(degrees, split) -> int:
    """Base-field M of a strategy's l-fold steps (32 at l = 3, 48 at
    l = 5) and stack pushes (16 and 28): the steps degrees[i:j] split at
    k = split(i, j) cost the steps from j down to i + k, the pushes of
    that stack point through steps i, ..., i+k-1, and the two parts."""
    step, push = {3: 32, 5: 48}, {3: 16, 5: 28}

    def cost(i, j):
        if j - i == 1:
            return 0
        k = split(i, j)
        return (sum(step[l] for l in degrees[i + k:j])
                + sum(push[l] for l in degrees[i:i + k])
                + cost(i, i + k) + cost(i + k, j))
    return cost(0, len(degrees))


class TestStrategy:
    @pytest.mark.parametrize("l", [3, 5])
    def test_never_above_balanced(self, l):
        """For every chain length up to 250, the planned tree costs what
        `chain_strategy` reports and no more than the balanced split
        k = (j - i) // 2."""
        for e in range(1, 251):
            degrees = (l,) * e
            cost, plan = chain_strategy(degrees)
            assert strategy_cost(degrees, lambda i, j: plan[i, j]) == cost
            assert cost <= strategy_cost(degrees, lambda i, j: (j - i) // 2)

    @pytest.mark.parametrize("l,e,optimal,balanced", [
        (3, 74, 10720, 11376), (5, 55, 11864, 12388)])
    def test_costs_at_247_bits(self, l, e, optimal, balanced):
        assert chain_strategy((l,) * e)[0] == optimal
        assert strategy_cost((l,) * e, lambda i, j: (j - i) // 2) == balanced

    @pytest.mark.parametrize("l,e,cost,digest", [
        (3, 74, 10720, "a74184a6c15895d2"), (5, 55, 11864, "73b506c0dab97d01")])
    def test_plans_at_247_bits(self, l, e, cost, digest):
        """The weights read from the x-line tally rows give the cost and
        the plan (its SHA-256 over the sorted splits) that the weights
        written out by hand, 32/16 and 48/28, gave."""
        got, plan = chain_strategy((l,) * e)
        text = repr(sorted(plan.items())).encode()
        assert (got, hashlib.sha256(text).hexdigest()[:16]) == (cost, digest)

    def test_mixed_degrees(self):
        """[3, 5, 3] splits at k = 2: one three-fold step and two
        pushed points (32 + 16 + 28) before a five-fold step and a
        push (48 + 16), against 156 for k = 1."""
        assert chain_strategy((3, 5, 3)) == (140, {(0, 3): 2, (0, 2): 1})

    @pytest.mark.parametrize("l,e", [(3, 238), (5, 165)])
    def test_first_plan_is_fast(self, l, e):
        """The 763-bit chains' trees, uncached, take under 50 ms each."""
        start = perf_counter()
        chain_strategy.__wrapped__((l,) * e)
        assert perf_counter() - start < 0.05

    @pytest.mark.parametrize("l", [3, 5, 7, 9, 15])
    def test_weights_are_counted_costs(self, l):
        """`xmul(l)` with a constant (C - D, C) and `odd_image` with a
        projective kernel of (l - 1)/2 points cost the weights in
        base-field M over F_{p^2}, and no base-field S."""
        field = QuadExtField(PrimeField(59))
        X, Z, c = field(3, 5), field(7, 2), (field(11, 13), field(2, 9))
        K = [(field(k, 1), field(1, k)) for k in range(l // 2)]
        with field.counting(OpCounter()) as step:
            xmul(l, (X, Z), c)
        with field.counting(OpCounter()) as push:
            odd_image((X, Z), K)
        assert ((step.m, step.s), (push.m, push.s)) == (
            (_step_weights(l)[0], 0), (_step_weights(l)[1], 0))

    @pytest.mark.parametrize("side,model", [(SIDE_A, 10720),
                                            (SIDE_B, 11864)])
    def test_model_is_counted_at_247_bits(self, side, model, monkeypatch):
        """The base-field M that a 247-bit chain spends in its l-fold steps
        (`_fold`) and stack pushes (`_push`) is the plan's model cost, less
        3 for each doubling on the first curve, whose C is one: step 0
        walks its kernel point down from G by e - 1 l-fold steps of one
        doubling each."""
        p = 4 * 3 ** 74 * 5 ** 55 - 1
        params = setup(74, 55, seed=1, max_p=p)
        E, basis = params.curve, params.basis(side)
        ctx, spent = OpCounter(), []

        def counted(fn):
            def run(*args):
                before = ctx.m
                out = fn(*args)
                spent.append(ctx.m - before)
                return out
            return run

        monkeypatch.setattr(isogeny, "_fold", counted(isogeny._fold))
        monkeypatch.setattr(isogeny, "_push", counted(isogeny._push))
        with params.field.counting(ctx):
            IsogenyChain(E, E.add(basis.P, E.scalar_mul(5, basis.Q)),
                         [basis.degree] * basis.exponent)
        assert sum(spent) == model - 3 * (basis.exponent - 1)
