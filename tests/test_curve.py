import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edwards_isogeny import (COMPLETE, QUADRATIC, TWISTED, AffinePoint,
                             DeskScaleOnly, EdwardsCurve, ExceptionalInput,
                             ExceptionalPair, InvalidCurve, InvalidParameter,
                             InvalidTwist, NotOnCurve, OpCounter, PrimeField,
                             ProtocolError, QuadExtField, classify,
                             j_invariant, recover_y)
from edwards_isogeny.curve import DESK_SCALE_LIMIT
from edwards_isogeny.field import MAX_MODULUS_BITS

from conftest import (DESK_PRIMES, beta_of, desk_curves, pt, raw,
                      raw_point)
from oracles import (euler_chi, montgomery_j, montgomery_point_order,
                     montgomery_scalar_mul, naive_add, naive_double_and_add,
                     naive_order, naive_point_order, naive_points,
                     naive_scalar_mul, naive_singular_count)

FP2_PRIMES = [p for p in DESK_PRIMES if p % 4 == 3]

# The full point list of the worked curve at p = 23, d = -1.
E23_POINTS = {(1, 0), (-1, 0), (0, 1), (0, -1)}
for _x, _y in [(2, 2), (3, 6), (6, 3), (9, 10), (10, 9)]:
    E23_POINTS |= {(_x, _y), (-_x, _y), (_x, -_y), (-_x, -_y)}


class TestClassify:
    def test_complete(self, e23):
        assert e23.class_tag == COMPLETE

    def test_quadratic(self, f23):
        # 2 = 5^2 mod 23
        assert classify(f23(1), f23(2)) == QUADRATIC

    def test_twisted(self, f23):
        # chi(5) = chi(7) = -1 mod 23 by the Euler oracle
        assert euler_chi(5, 23) == euler_chi(7, 23) == -1
        assert classify(f23(5), f23(7)) == TWISTED

    def test_partition(self, f23):
        """The three classes partition all valid parameter pairs."""
        for a in range(1, 23):
            for d in range(1, 23):
                if a == d:
                    continue
                tag = classify(f23(a), f23(d))
                ca, cd = euler_chi(a, 23), euler_chi(d, 23)
                if ca * cd == -1:
                    assert tag == COMPLETE
                elif ca == -1:
                    assert tag == TWISTED
                else:
                    assert tag == QUADRATIC

    def test_degenerate(self, f23):
        with pytest.raises(InvalidCurve):
            EdwardsCurve(f23, f23(1), f23(1))
        with pytest.raises(InvalidCurve):
            EdwardsCurve(f23, f23(0), f23(2))
        with pytest.raises(InvalidCurve):
            EdwardsCurve(f23, f23(1), f23(0))

    def test_degenerate_message(self, f23):
        with pytest.raises(InvalidCurve, match=r"degenerate parameters a=1, d=1"):
            classify(f23(1), f23(1))

    def test_extension_curves_are_quadratic(self):
        field = QuadExtField(PrimeField(23))
        curve = EdwardsCurve(field, field.one, field(-1))
        assert curve.class_tag == QUADRATIC


class TestMembership:
    def test_neutral(self, e23, e19):
        for curve in (e23, e19):
            assert curve.contains(curve.identity)

    def test_listed_point(self, e23):
        assert e23.contains(pt(e23, 3, 6))

    def test_off_curve(self, e23):
        assert not e23.contains(pt(e23, 3, 7))

    def test_check_point_is_uncounted(self, e23):
        before = e23.field.counter.snapshot()
        P = pt(e23, 3, 6)
        assert e23.check_point(P) is P
        with pytest.raises(NotOnCurve):
            e23.check_point(pt(e23, 3, 7))
        assert e23.field.counter.snapshot() == before


class TestGroupLaw:
    def test_add_neutral(self, e23):
        P = pt(e23, 2, 2)
        assert e23.add(P, e23.identity) == P

    def test_add_order2_negates(self, e23):
        """P + D0 = (-x, -y), checked for every affine point."""
        d0 = pt(e23, -1, 0)
        for P in e23.points():
            assert e23.add(P, d0) == AffinePoint(-P.x, -P.y)

    def test_double_order3_point(self, e23):
        Q = pt(e23, -10, 9)
        assert e23.add(Q, Q) == pt(e23, -10, -9)    # 2Q = -Q

    def test_double_formula_cases(self, e23):
        assert e23.double(e23.identity) == e23.identity
        assert e23.double(pt(e23, -1, 0)) == e23.identity
        assert e23.double(pt(e23, 2, 2)) == pt(e23, 0, 1)

    def test_double_equals_add(self, e23, e19):
        for curve in (e23, e19):
            for P in curve.points():
                assert curve.double(P) == curve.add(P, P)

    def test_neg_is_inverse(self, e23):
        for P in e23.points():
            assert e23.add(P, P.neg()).is_identity()

    def test_commutative(self, e23):
        pts = e23.points()
        for P in pts:
            for Q in pts:
                assert e23.add(P, Q) == e23.add(Q, P)

    def test_associative_exhaustive(self, e23):
        pts = e23.points()
        for P in pts[::3]:
            for Q in pts[::2]:
                for R in pts[::4]:
                    lhs = e23.add(e23.add(P, Q), R)
                    rhs = e23.add(P, e23.add(Q, R))
                    assert lhs == rhs

    def test_matches_oracle(self, e23):
        for P in e23.points():
            for Q in e23.points():
                got = e23.add(P, Q)
                want = naive_add((P.x.value, P.y.value),
                                 (Q.x.value, Q.y.value), 23, 1, -1)
                assert (got.x.value, got.y.value) == want

    @settings(max_examples=80)
    @given(curve=desk_curves(), data=st.data(), lift=st.booleans())
    def test_matches_oracle_on_desk_curves(self, curve, data, lift):
        """`add` and `double` on every class of desk curve, over F_p or
        lifted to F_{p^2} (p = 3 mod 4), where every point at infinity is
        rational: each equals `naive_add`, P + P for a double, and raises
        ExceptionalPair exactly where it gives None."""
        if lift and curve.field.p % 4 == 3:
            field = QuadExtField(curve.field)
            E = EdwardsCurve(field, field(curve.a.value), field(curve.d.value))
            pts = []
            for x in data.draw(st.lists(st.tuples(*[st.integers(
                    0, field.p - 1)] * 2), min_size=1, max_size=8)):
                try:
                    pts.append(recover_y(field(*x), E))
                except (ExceptionalInput, NotOnCurve):
                    pass
            assume(pts)
        else:
            E, pts = curve, curve.points()
        p, a, d, beta = E.field.p, raw(E.a), raw(E.d), beta_of(E.field)
        P, Q = (data.draw(st.sampled_from(pts)) for _ in range(2))
        for law, args in ((E.add, (P, Q)), (E.double, (P,))):
            want = naive_add(raw_point(P), raw_point(args[-1]), p, a, d,
                             beta)
            if want is None:
                with pytest.raises(ExceptionalPair):
                    law(*args)
            else:
                assert raw_point(law(*args)) == want

    @pytest.mark.parametrize("call,name", [
        (lambda E, G: E.add(G, (1, 2)), "Q"),
        (lambda E, G: E.add((1, 2), G), "P"),
        (lambda E, G: E.add(G, None), "Q"),
        (lambda E, G: E.double((1, 2)), "point"),
        (lambda E, G: E.check_point((1, 2)), "point"),
        (lambda E, G: E.point_order((1, 2)), "point"),
        (lambda E, G: E.point_order(G.x), "point")],
        ids=["add-Q", "add-P", "add-none", "double", "check_point",
             "point_order", "point_order-element"])
    def test_mistyped_point_is_invalid_parameter(self, e23, call, name):
        """A point that is not a pair of elements raises InvalidParameter
        naming it, before anything is counted; `E.add(G, (1, 2))` and
        `E.point_order((1, 2))` were AttributeErrors."""
        G = pt(e23, 2, 2)
        with e23.field.counting(OpCounter()) as ctx:
            with pytest.raises(InvalidParameter, match=f"^{name} "):
                call(e23, G)
        assert ctx.as_dict() == {"M": 0, "S": 0, "I": 0, "A": 0}

    def test_exceptional_pair_raises(self, f23):
        """On a quadratic curve some sums land at infinity."""
        curve = EdwardsCurve(f23, f23(1), f23(2))
        pts = curve.points()
        raised = 0
        for P in pts:
            for Q in pts:
                try:
                    curve.add(P, Q)
                except ExceptionalPair:
                    raised += 1
        assert raised == 128   # counted by the independent grid oracle


class TestScalarMul:
    def test_zero(self, e23):
        assert e23.scalar_mul(0, pt(e23, 2, 2)) == e23.identity

    @pytest.mark.parametrize("k", [0, -1, -3])
    def test_k_below_one(self, e23, k):
        """0*P = O and k*P = |k|*(-P), not the P, 3P and 7P that
        double-and-add from bin(k)[3:] would give."""
        want = naive_scalar_mul(-k, (2, -2 % 23), 23, 1, -1)
        assert raw_point(e23.scalar_mul(k, pt(e23, 2, 2))) == want

    def test_triple_of_order12_point(self, e23):
        # 3 * (9, 10) has order 4; repeated-addition oracle fixes (0, 1)
        assert naive_scalar_mul(3, (9, 10), 23, 1, -1) == (0, 1)
        assert e23.scalar_mul(3, pt(e23, 9, 10)) == pt(e23, 0, 1)

    def test_full_order_annihilates(self, e23):
        assert e23.scalar_mul(24, pt(e23, 3, 6)).is_identity()

    def test_against_repeated_addition(self, e23):
        P = pt(e23, 3, 6)
        for k in range(25):
            want = naive_scalar_mul(k, (3, 6), 23, 1, -1)
            got = e23.scalar_mul(k, P)
            assert (got.x.value, got.y.value) == want

    def test_distributive(self, e23):
        P = pt(e23, 2, 2)
        for m in range(9):
            for n in range(9):
                assert (e23.add(e23.scalar_mul(m, P), e23.scalar_mul(n, P))
                        == e23.scalar_mul(m + n, P))

    @settings(max_examples=60)
    @given(curve=desk_curves(primes=FP2_PRIMES), data=st.data())
    def test_over_fp2_matches_repeated_addition(self, curve, data):
        """A desk curve lifted to F_{p^2}, where every point at infinity
        is rational: k*P equals repeated addition wherever that is
        defined, and raises ExceptionalPair only where it is not."""
        field = QuadExtField(curve.field)
        p, a, d = field.p, curve.a.value, curve.d.value
        E = EdwardsCurve(field, field(a), field(d))
        points = []
        for x in data.draw(st.lists(st.tuples(st.integers(0, p - 1),
                                              st.integers(0, p - 1)),
                                    min_size=1, max_size=8)):
            try:
                points.append(recover_y(field(*x), E))
            except (ExceptionalInput, NotOnCurve):
                pass
        assume(points)
        P = data.draw(st.sampled_from(points))
        k = data.draw(st.integers(-3 * p, 3 * p))
        want = naive_scalar_mul(abs(k), raw_point(P if k >= 0 else P.neg()),
                                p, a, d, field.beta)
        try:
            got = E.scalar_mul(k, P)
        except ExceptionalPair:
            assert want is None
            return
        assert want in (None, raw_point(got))
        assert E.contains(got)

    def test_cofactor_count_at_247_bits(self):
        """Cost gate: (p + 1)/3 times a point of E_{1,-1} over F_{p^2},
        p = 4*3^74*5^55 - 1, a 246-bit ladder, `recover_xy` and one
        inversion, counts 7,163 M / 2 S / 1 I base; the projective
        double-and-add it replaced counted 8,141 M / 2 S / 1 I."""
        p = 4 * 3 ** 74 * 5 ** 55 - 1
        field = QuadExtField(PrimeField(p))
        E = EdwardsCurve(field, field.one, field(-1))
        P = recover_y(field(2), E)
        with field.counting(OpCounter()) as ctx:
            G = E.scalar_mul((p + 1) // 3, P)
        assert {k: ctx.as_dict()[k] for k in "MSI"} == {"M": 7163, "S": 2,
                                                        "I": 1}
        assert not G.is_identity() and E.scalar_mul(3, G).is_identity()

    @pytest.mark.parametrize("k,P,name", [
        (1.5, "G", "k"), ("3", "G", "k"), (None, "G", "k"), (True, "G", "k"),
        (3, (2, 2), "point"), (3, None, "point"), (3, ("x", "y"), "point")],
        ids=["k-float", "k-str", "k-none", "k-bool", "int-pair", "no-point",
             "str-pair"])
    def test_mistyped_input_is_invalid_parameter(self, e23, k, P, name):
        """A k that is not an int, with P = G = (2, 2) of the curve, or a
        P that is not a pair of elements raises InvalidParameter naming
        it, before anything is counted; k = 1.5 was a TypeError."""
        P = pt(e23, 2, 2) if P == "G" else P
        with e23.field.counting(OpCounter()) as ctx:
            with pytest.raises(InvalidParameter, match=name):
                e23.scalar_mul(k, P)
        assert ctx.as_dict() == {"M": 0, "S": 0, "I": 0, "A": 0}


def check_scalar_mul(curve, k, P) -> bool:
    """scalar_mul(k, P) against the raw-integer oracles; True when it
    raised.  `scalar_mul` is defined wherever k*P is affine, as the
    Montgomery-model oracle is, so ExceptionalPair must come exactly
    where that oracle gives None.  Repeated addition meets every multiple
    up to k, so it may fail where k*P is affine, and must agree wherever
    it is defined."""
    p, a, d = curve.field.p, curve.a.value, curve.d.value
    xy = (P.x.value, P.y.value)
    want = montgomery_scalar_mul(k, xy, p, a, d)
    repeated = naive_scalar_mul(k, xy, p, a, d)
    try:
        got = curve.scalar_mul(k, P)
    except ExceptionalPair:
        assert want is None and repeated is None
        return True
    assert (got.x.value, got.y.value) == want
    assert repeated in (None, want)
    return False


class TestScalarMulOraclesAndCosts:
    @settings(max_examples=80)
    @given(curve=desk_curves(), data=st.data())
    def test_scalar_mul_matches_oracles(self, curve, data):
        P = data.draw(st.sampled_from(curve.points()))
        k = data.draw(st.integers(1, 2 * curve.field.p + 8))
        check_scalar_mul(curve, k, P)

    @settings(max_examples=80)
    @given(curve=desk_curves(classes=(QUADRATIC,)), data=st.data())
    def test_scalar_mul_on_quadratic_curves(self, curve, data):
        """Quadratic curves have singular points, so k*P or a multiple
        below it can lie at infinity."""
        P = data.draw(st.sampled_from(curve.points()))
        k = data.draw(st.integers(1, 2 * curve.field.p + 8))
        check_scalar_mul(curve, k, P)

    def test_scalar_mul_exceptions_reached(self, f23):
        """Every multiple of every point of the quadratic E_{1,2} at
        p = 23 up to 2p; some of them lie at infinity and raise."""
        curve = EdwardsCurve(f23, f23(1), f23(2))
        raised = sum(check_scalar_mul(curve, k, P)
                     for P in curve.points() for k in range(1, 47))
        assert raised > 0

    def test_costs(self, e23):
        """The affine law on a = 1: 10M and one inversion a sum, the
        product by d included; 5M + 3S and one inversion a double."""
        P, Q = pt(e23, 3, 6), pt(e23, 2, 2)
        ops = [(lambda: e23.double(Q), {"M": 5, "S": 3, "I": 1}),
               (lambda: e23.add(Q, Q), {"M": 10, "S": 0, "I": 1}),
               (lambda: e23.add(Q, P), {"M": 10, "S": 0, "I": 1})]
        for op, want in ops:
            with e23.field.counting(OpCounter()) as ctx:
                op()
            assert {k: ctx.as_dict()[k] for k in want} == want

    @pytest.mark.parametrize("op,k,points,want,cost", [
        ("add", None, [(2, 2), (1, 0)], (2, 2), (5, 0, 0)),
        ("add", None, [(2, 2), (-1, 0)], (-2, -2), (5, 0, 0)),
        ("add", None, [(2, 2), (0, 1)], (-2, 2), (5, 0, 0)),
        ("double", None, [(0, 1)], (-1, 0), (0, 3, 0)),
        ("double", None, [(1, 0)], (1, 0), (0, 3, 0)),
        ("scalar_mul", 7, [(2, 2)], (2, -2), (17, 10, 0)),
        ("scalar_mul", 8, [(2, 2)], (1, 0), (22, 12, 1)),
        ("scalar_mul", 5, [(2, 2)], (-2, -2), (26, 12, 1))],
        ids=["P+O", "P+D0", "P+F0", "2F0", "2O", "7P", "8P", "5P"])
    def test_unit_denominators_cost_nothing(self, e23, op, k, points, want,
                                            cost):
        """`_divide` skips a denominator equal to one, so a sum with O,
        (-1, 0) or (0, 1), whose two denominators are one, takes 5M and
        no inversion, the doubles of O and (0, 1) 3S alone, and k*P
        (P = (2, 2) of order 8) 5M and the inversion less at 7P = -P, 4M
        less at 8P = O and at 5P, where one of the two is one.  The
        values are `naive_add`'s and `naive_scalar_mul`'s."""
        P = [pt(e23, *V) for V in points]
        with e23.field.counting(OpCounter()) as ctx:
            got = getattr(e23, op)(*P if k is None else [k, *P])
        assert (ctx.m, ctx.s, ctx.i) == cost
        raws = [raw_point(V) for V in P]
        oracle = (naive_add(raws[0], raws[-1], 23, 1, -1) if k is None
                  else naive_scalar_mul(k, raws[0], 23, 1, -1))
        assert raw_point(got) == oracle == tuple(v % 23 for v in want)


class TestPointOrder:
    def test_neutral(self, e23):
        assert e23.point_order(e23.identity) == 1

    @pytest.mark.parametrize("xy,order", [
        ((3, 6), 24), ((6, 3), 24), ((2, 2), 8), ((9, 10), 12),
        ((10, 9), 6), ((-10, 9), 3), ((-1, 0), 2), ((0, 1), 4),
    ])
    def test_worked_orders(self, e23, xy, order):
        assert e23.point_order(pt(e23, *xy)) == order

    def test_order5_point(self, e19):
        assert e19.point_order(pt(e19, 6, 4)) == 5

    def test_matches_oracle(self, e23):
        for P in e23.points():
            want = naive_point_order((P.x.value, P.y.value), 23, 1, -1)
            assert e23.point_order(P) == want

    @pytest.mark.parametrize("p", [19, 23, 59])
    def test_every_desk_curve(self, p):
        """Every affine point of E_{a,d} for a in {1, n}, n the smallest
        non-residue, and every d not in {0, a}: every curve over F_p up
        to isomorphism, in all three classes.  The orders come from a
        walk on the Montgomery model, which passes the points at
        infinity; some of the points are ones whose order-sized
        double-and-add ladder hits such a point."""
        field = PrimeField(p)
        n = next(c for c in range(2, p) if euler_chi(c, p) == -1)
        classes, ladder_fails = set(), 0
        for a in (1, n):
            for d in range(1, p):
                if d == a:
                    continue
                curve = EdwardsCurve(field, field(a), field(d))
                classes.add(curve.class_tag)
                for P in curve.points():
                    xy = (P.x.value, P.y.value)
                    want = montgomery_point_order(xy, p, a, d)
                    assert curve.point_order(P) == want
                    ladder_fails += naive_double_and_add(
                        curve.order(), xy, p, a, d) is None
        assert classes == {COMPLETE, TWISTED, QUADRATIC}
        assert ladder_fails > 0

    def test_quadratic_repro(self, f23):
        """(6, 11) on E_{1,2}/F_23: a double-and-add for the group order 24
        passes a point at infinity, which the x-line ladder of
        `scalar_mul` and `point_order` steps over."""
        curve = EdwardsCurve(f23, f23(1), f23(2))
        P = pt(curve, 6, 11)
        assert naive_double_and_add(24, (6, 11), 23, 1, 2) is None
        assert curve.scalar_mul(curve.order(), P).is_identity()
        assert curve.point_order(P) == 12


class TestEnumeration:
    def test_worked_point_list(self, e23):
        got = {(P.x.signed(), P.y.signed()) for P in e23.points()}
        assert got == E23_POINTS
        assert e23.order() == 24

    def test_order_20(self, e19):
        assert e19.order() == 20

    def test_image_curve_points(self, f23):
        curve = EdwardsCurve(f23, f23.one, f23(-2))
        pts = {(P.x.value, P.y.value) for P in curve.points()}
        assert {(3, 5), (7, 7), (9, 11)} <= pts
        assert curve.order() == 24

    def test_matches_grid_oracle(self, f23):
        for d in (2, 5, -2):
            curve = EdwardsCurve(f23, f23.one, f23(d))
            got = {(P.x.value, P.y.value) for P in curve.points()}
            assert got == set(naive_points(23, 1, d))
            assert curve.order() == naive_order(23, 1, d)

    def test_extension_order(self):
        """#E(F_{p^2}) = (p+1)^2 - t^2 with t = p + 1 - #E(F_p)."""
        for p, d in ((11, 2), (19, 3), (23, 5)):
            field = QuadExtField(PrimeField(p))
            curve = EdwardsCurve(field, field.one, field(d))
            t = p + 1 - naive_order(p, 1, d)
            assert curve.order() == (p + 1) ** 2 - t * t

    def test_desk_scale_guard(self):
        field = PrimeField(1_000_003)
        curve = EdwardsCurve(field, field.one, field(-1))
        with pytest.raises(DeskScaleOnly):
            curve.points()

    def test_desk_scale_guard_on_order(self):
        """Both counting routes refuse: the raw-int scan over F_p and
        the point list over F_{p^2} (1019^2 > DESK_SCALE_LIMIT)."""
        base = PrimeField(1_000_003)
        ext = QuadExtField(PrimeField(1019))
        assert ext.size > DESK_SCALE_LIMIT
        for field in (base, ext):
            curve = EdwardsCurve(field, field.one, field(-1))
            with pytest.raises(DeskScaleOnly):
                curve.order()
            with pytest.raises(DeskScaleOnly):
                curve.points()


class TestStructure:
    def test_four_divides_every_order(self, f23):
        for a in (1, 5):
            for d in range(2, 23):
                if d == a or (a == 5 and euler_chi(d, 23) == 1):
                    continue
                curve = EdwardsCurve(f23, f23(a), f23(d))
                assert curve.order() % 4 == 0

    def test_eight_divides_quadratic_order(self):
        for p in (23, 31, 43):
            field = PrimeField(p)
            for d in range(2, p):
                if d == 1 or euler_chi(d, p) != 1:
                    continue
                curve = EdwardsCurve(field, field.one, field(d))
                assert curve.class_tag == QUADRATIC
                assert curve.order() % 8 == 0

    def test_complete_has_single_order2_point(self, e23):
        pts = [P for P in e23.points()
               if not P.is_identity() and e23.double(P).is_identity()]
        assert len(pts) == 1
        assert not any(s.order == 2 for s in e23.special_points().singular)

    def test_noncyclic_classes_have_three_order2(self, f23):
        quad = EdwardsCurve(f23, f23(1), f23(2))
        twisted = EdwardsCurve(f23, f23(5), f23(7))
        for curve in (quad, twisted):
            affine = [P for P in curve.points() if not P.is_identity()]
            affine_order2 = sum(
                1 for P in affine
                if _double_is_identity(curve, P))
            singular_order2 = sum(
                1 for s in curve.special_points().singular if s.order == 2)
            assert affine_order2 + singular_order2 == 3

    def test_twisted_no_order4_when_p_1_mod_4(self):
        """Twisted curves over p = 1 (mod 4) carry no order-4 points,
        neither affine nor through a singular double."""
        for p in (13, 29):
            field = PrimeField(p)
            nonresidues = [c for c in range(2, p) if euler_chi(c, p) == -1]
            for a in nonresidues[:3]:
                for d in nonresidues:
                    if a == d:
                        continue
                    curve = EdwardsCurve(field, field(a), field(d))
                    d0 = AffinePoint(-field.one, field.zero)
                    for P in curve.points():
                        try:
                            assert curve.double(P) != d0
                        except ExceptionalPair:
                            raise AssertionError(
                                f"order-4 point {P!r} on E_{{{a},{d}}}/F_{p}")
                    assert not any(
                        s.order == 4 for s in curve.special_points().singular)


def _double_is_identity(curve, P):
    try:
        return curve.double(P).is_identity()
    except ExceptionalPair:
        return False


class TestJInvariant:
    def test_worked_value(self, f23):
        # 12^3 = 1728 = 3 mod 23
        assert j_invariant(f23(1), f23(-1)) == 3
        assert j_invariant(f23(1), f23(-1)) == pow(12, 3, 23)

    def test_image_curve_value(self, f23):
        # numerator 1 + 4 - 28 = -23 = 0; the Montgomery route agrees
        assert j_invariant(f23(1), f23(-2)) == 0
        assert montgomery_j(1, -2, 23) == 0

    def test_symmetry(self, f23):
        for a, d in [(1, 2), (3, 7), (5, 11), (2, 21)]:
            assert j_invariant(f23(a), f23(d)) == j_invariant(f23(d), f23(a))

    def test_scaling_invariance(self, f23):
        """j(a, d) = j(1, d/a): the isomorphism to the a = 1 form."""
        for a in (2, 5, 9):
            for d in (3, 7, 13):
                assert (j_invariant(f23(a), f23(d))
                        == j_invariant(f23(1), f23(d) / f23(a)))

    def test_montgomery_oracle_everywhere(self):
        for p in (19, 23):
            field = PrimeField(p)
            for d in range(2, p):
                if d == 1:
                    continue
                assert j_invariant(field(1), field(d)) == montgomery_j(1, d, p)

    def test_degenerate(self, f23):
        with pytest.raises(InvalidCurve):
            j_invariant(f23(2), f23(2))


class TestSpecialPoints:
    def test_complete_curve(self, e23):
        sp = e23.special_points()
        assert sp.neutral == pt(e23, 1, 0)
        assert sp.d0 == pt(e23, -1, 0)
        assert {(P.x.value, P.y.value) for P in sp.f0_pair} == {(0, 1), (0, 22)}
        assert sp.singular == []

    def test_quadratic_curve_has_four_singulars(self, f23):
        sp = EdwardsCurve(f23, f23(1), f23(2)).special_points()
        orders = sorted(s.order for s in sp.singular)
        assert orders == [2, 2, 4, 4]

    def test_twisted_curve_has_two_singulars(self, f23):
        sp = EdwardsCurve(f23, f23(5), f23(7)).special_points()
        assert [s.order for s in sp.singular] == [2, 2]
        assert sp.f0_pair == []        # chi(a) = -1: no affine order-4 axis points

    def test_d0_doubles_to_neutral(self, e23, e19):
        for curve in (e23, e19):
            assert curve.double(curve.special_points().d0).is_identity()


class TestTwist:
    def test_complete_stays_complete(self, e23, f23):
        twisted = e23.quadratic_twist(f23(5))
        assert twisted.class_tag == COMPLETE

    def test_quadratic_twisted_swap(self, f23):
        quad = EdwardsCurve(f23, f23(1), f23(2))
        tw = quad.quadratic_twist(f23(5))
        assert (tw.a.value, tw.d.value) == (5, 10)
        assert tw.class_tag == TWISTED
        assert tw.quadratic_twist(f23(7)).class_tag == QUADRATIC

    def test_rejects_square(self, e23, f23):
        with pytest.raises(InvalidTwist):
            e23.quadratic_twist(f23(2))

    def test_order_sum(self, f23):
        """N_E + N_twist = 2p + 2."""
        for d in (2, 3, -1, -2, 7):
            curve = EdwardsCurve(f23, f23(1), f23(d))
            tw = curve.quadratic_twist(f23(5))
            assert curve.order() + tw.order() == 2 * 23 + 2


class TestSerialization:
    def test_curve_json(self, e23):
        doc = e23.to_json()
        assert doc == {"p": "17", "a": "1", "d": "16", "class": "complete"}

    def test_point_json(self, e23):
        assert pt(e23, 3, 6).to_json() == {"x": "3", "y": "6"}

    def test_curve_round_trip(self, e23):
        assert EdwardsCurve.from_json(e23.to_json()) == e23

    def test_point_round_trip(self, e23):
        P = pt(e23, 3, 6)
        assert AffinePoint.from_json(P.to_json(), e23.field) == P

    def test_extension_round_trip(self):
        field = QuadExtField(PrimeField(59))
        curve = EdwardsCurve(field, field.one, field(-1))
        again = EdwardsCurve.from_json(curve.to_json())
        assert again == curve
        P = AffinePoint(field(3, 7), field(2, 11))
        assert AffinePoint.from_json(P.to_json(), field) == P

    def test_extension_needs_3_mod_4(self):
        """A curve with an `i` coordinate over p = 1 (mod 4) is refused
        as QuadExtField refuses p."""
        doc = {"p": "d", "a": "1", "d": "3+1*i"}
        with pytest.raises(ValueError, match=r"p = 3 \(mod 4\)"):
            EdwardsCurve.from_json(doc)

    def test_long_modulus_rejected(self):
        """A hex p above MAX_MODULUS_BITS is refused before any primality
        round, as PrimeField refuses it."""
        doc = {"p": format(2 ** MAX_MODULUS_BITS + 1, "x"), "a": "1", "d": "2"}
        with pytest.raises(ValueError, match="exceeds 2080"):
            EdwardsCurve.from_json(doc)

    def test_class_mismatch_rejected(self, e23):
        doc = e23.to_json()
        doc["class"] = "twisted"
        with pytest.raises(InvalidCurve):
            EdwardsCurve.from_json(doc)

    @pytest.mark.parametrize("doc", [
        {}, {"p": 23, "a": "1", "d": "2"}, None, [], "17",
        {"p": "17", "a": "1"}, {"p": "17", "a": 1, "d": "2"},
        {"p": "17", "a": "1", "d": "zz"}, {"p": "4", "a": "1", "d": "2"}],
        ids=["empty", "int_p", "none", "list", "str", "no_d", "int_a",
             "bad_hex", "composite_p"])
    def test_malformed_curve_document_is_typed(self, doc):
        """A curve document that is not a mapping of hex strings raises
        ProtocolError, which is a ValueError, never a KeyError or a
        TypeError."""
        with pytest.raises(ProtocolError, match="malformed curve") as exc:
            EdwardsCurve.from_json(doc)
        assert isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("doc", [
        {"x": "1"}, {}, None, {"x": 1, "y": "2"}, {"x": "1", "y": "zz"}],
        ids=["no_y", "empty", "none", "int_x", "bad_hex"])
    def test_malformed_point_document_is_typed(self, f23, doc):
        with pytest.raises(ProtocolError, match="malformed point document"):
            AffinePoint.from_json(doc, f23)
