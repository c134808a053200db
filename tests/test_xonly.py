import inspect
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edwards_isogeny import (EdwardsCurve, ExceptionalInput, ExceptionalPair,
                             FieldMismatch, NotOnCurve, OpCounter, PrimeField,
                             QuadExtElement, QuadExtField, XZPoint,
                             eval_3_isog, eval_5_isog, get_3_isog, get_5_isog,
                             recover_y, setup)
from edwards_isogeny.xonly import (FP, FP2, XDBL, _odd, ladder3pt,
                                   odd_codomain, odd_image, recover_xy, xadd,
                                   xdbl, xladder, xmul)

from conftest import desk_curves, ladder_offsets, pt
from oracles import (counted_get_3_isog, counted_odd, counted_odd_codomain,
                     counted_odd_image, counted_xadd, counted_xdbl,
                     montgomery_scalar_mul, montgomery_x_mul, naive_full_map,
                     run_5_isog)


def xz(field, x, z=1):
    return XZPoint(field(x), field(z))


def run_3_isog(P, K1):
    """Image point and codomain of a 3-isogeny in one call: 6M + 5S."""
    return eval_3_isog(P, K1), get_3_isog(K1)


def same_class(a, b):
    """Projective equality of two XZPoints, or of two ProjParams."""
    (x1, z1), (x2, z2) = ((v.X, v.Z) if isinstance(v, XZPoint) else (v.D, v.C)
                          for v in (a, b))
    return x1 * z2 == x2 * z1


def full_map_x(P, xs, p, d):
    """x of the raw full map (`oracles.naive_full_map`) at P."""
    return naive_full_map((P.x.value, P.y.value), xs, p, d)[0]


@pytest.fixture
def k3(f23):
    return xz(f23, -10)          # order-3 abscissa on E_{-1}/F_23


@pytest.fixture
def k5(f19):
    return xz(f19, 6), xz(f19, -8)   # x(Q), x(2Q) on E_{-1}/F_19


class TestCosts:
    def test_get_3(self, f23, k3):
        ctx = OpCounter()
        with f23.counting(ctx):
            get_3_isog(k3)
        assert (ctx.m, ctx.s, ctx.i) == (2, 3, 0)

    def test_eval_3(self, f23, k3):
        ctx = OpCounter()
        with f23.counting(ctx):
            eval_3_isog(xz(f23, 3), k3)
        assert (ctx.m, ctx.s, ctx.i) == (4, 2, 0)

    def test_run_3_total(self, f23, k3):
        ctx = OpCounter()
        with f23.counting(ctx):
            run_3_isog(xz(f23, 3), k3)
        assert (ctx.m, ctx.s) == (6, 5)

    def test_eval_5(self, f19, e19, k5):
        ctx = OpCounter()
        with f19.counting(ctx):
            eval_5_isog(xz(f19, 2), *k5, e19.d)
        assert (ctx.m, ctx.s, ctx.i) == (19, 6, 0)

    def test_get_5_with_shared_squares(self, f19, e19, k5):
        K1, K2 = k5
        shared = (K1.X.square() * K2.X.square(),
                  K1.Z.square() * K2.Z.square())
        ctx = OpCounter()
        with f19.counting(ctx):
            get_5_isog(K1, K2, e19.d, shared=shared)
        assert (ctx.m, ctx.s, ctx.i) == (2, 6, 0)

    def test_get_5_standalone(self, f19, e19, k5):
        ctx = OpCounter()
        with f19.counting(ctx):
            get_5_isog(*k5, e19.d)
        assert (ctx.m, ctx.s, ctx.i) == (4, 10, 0)

    def test_run_5_total(self, f19, e19, k5):
        ctx = OpCounter()
        with f19.counting(ctx):
            run_5_isog(xz(f19, 2), *k5, e19.d)
        assert (ctx.m, ctx.s, ctx.i) == (21, 12, 0)


class TestCodomain3:
    def test_worked_ratio(self, f23, k3):
        assert get_3_isog(k3).d_prime() == -2

    def test_matches_kernel_param(self, e23, f23):
        """d' = x^8 d^3 for every order-3 abscissa x on E_{-1}/F_23."""
        for P in e23.points():
            if P.is_identity():
                continue
            if not e23.scalar_mul(3, P).is_identity():
                continue
            assert get_3_isog(XZPoint.from_affine(P)).d_prime() \
                == P.x ** 8 * e23.d ** 3

    def test_projective_invariance(self, f23):
        base = get_3_isog(xz(f23, -10))
        for lam in (2, 5, 22):
            scaled = get_3_isog(xz(f23, -10 * lam, lam))
            assert same_class(base, scaled)
            assert scaled.d_prime() == -2


class TestEval3:
    def test_worked_point(self, f23, k3):
        img = eval_3_isog(xz(f23, 3), k3)
        assert not img.is_exceptional()
        assert img.affine_x() == -7

    def test_neutral(self, f23, k3):
        img = eval_3_isog(xz(f23, 1), k3)
        assert img.affine_x() == 1

    def test_homogeneous_in_both_arguments(self, f23, k3):
        want = eval_3_isog(xz(f23, 3), k3).affine_x()
        for lam in (2, 7):
            for mu in (3, 11):
                img = eval_3_isog(xz(f23, 3 * mu, mu), xz(f23, -10 * lam, lam))
                assert img.affine_x() == want

    def test_matches_affine_exhaustive(self, e23, f23):
        """x of the raw full map at every point of E_{-1}/F_23."""
        K1 = xz(f23, -10)
        for P in e23.points():
            img = eval_3_isog(XZPoint.from_affine(P), K1)
            assert not img.is_exceptional()
            assert img.affine_x() == full_map_x(P, [-10], 23, -1)

    def test_never_reads_d(self):
        """The 3-isogeny x-map is independent of the curve parameter:
        no d argument exists to read."""
        assert "d" not in inspect.signature(eval_3_isog).parameters
        assert "d" not in inspect.signature(get_3_isog).parameters


class TestEval5:
    @pytest.mark.parametrize("x,want", [(2, 0), (8, -1), (6, 1), (-8, 1), (1, 1)])
    def test_worked_points(self, f19, e19, k5, x, want):
        img = eval_5_isog(xz(f19, x), *k5, e19.d)
        assert not img.is_exceptional()
        assert img.affine_x() == want

    def test_matches_affine_exhaustive(self, e19, f19, k5):
        """x of the raw full map at every point of E_{-1}/F_19."""
        for P in e19.points():
            img = eval_5_isog(XZPoint.from_affine(P), *k5, e19.d)
            assert not img.is_exceptional()
            assert img.affine_x() == full_map_x(P, [6, -8], 19, -1)

    def test_homogeneous(self, f19, e19, k5):
        K1, K2 = k5
        want = eval_5_isog(xz(f19, 8), K1, K2, e19.d).affine_x()
        img = eval_5_isog(xz(f19, 8 * 3, 3), xz(f19, 6 * 7, 7),
                          xz(f19, -8 * 2, 2), e19.d)
        assert img.affine_x() == want


class TestCodomain5:
    def test_worked_ratio(self, f19, e19, k5):
        assert get_5_isog(*k5, e19.d).d_prime() == 2

    def test_matches_kernel_param(self, e19, f19, k5):
        """d' = (x(Q) x(2Q))^8 d^5."""
        assert (get_5_isog(*k5, e19.d).d_prime()
                == (f19(6) * f19(-8)) ** 8 * e19.d ** 5)

    def test_unit_kernel_gives_d_to_fifth(self, f19, e19):
        params = get_5_isog(xz(f19, 1), xz(f19, 1), e19.d)
        assert params.C == 1
        assert params.d_prime() == e19.d ** 5

    def test_projective_invariance(self, f19, e19, k5):
        """The scaled parameters are degree-balanced: rescaling either
        kernel point leaves D'/C' fixed, no Z = 1 normalization
        needed."""
        K1, K2 = k5
        base = get_5_isog(K1, K2, e19.d)
        for l1 in (2, 5):
            for l2 in (3, 11):
                scaled = get_5_isog(xz(f19, 6 * l1, l1),
                                    xz(f19, -8 * l2, l2), e19.d)
                assert same_class(base, scaled)
                assert scaled.d_prime() == 2

    def test_run_matches_separate_calls(self, f19, e19, k5):
        img, params = run_5_isog(xz(f19, 2), *k5, e19.d)
        assert same_class(img, eval_5_isog(xz(f19, 2), *k5, e19.d))
        assert same_class(params, get_5_isog(*k5, e19.d))


class TestXZPoint:
    def test_rejects_double_zero(self, f23):
        with pytest.raises(ValueError):
            XZPoint(f23.zero, f23.zero)

    def test_exceptional_representation(self, f23):
        P = XZPoint(f23.one, f23.zero)
        assert P.is_exceptional()

    def test_same_class(self, f23):
        assert same_class(xz(f23, 3), xz(f23, 9, 3))
        assert not same_class(xz(f23, 3), xz(f23, 4))

    def test_is_the_plain_pair(self, f23):
        """An XZPoint equals the tuple (X, Z) and unpacks as it does."""
        X, Z = f23(3), f23(5)
        P = XZPoint(X, Z)
        assert P == (X, Z) and tuple(P) == (X, Z)
        U, V = P
        assert (U, V) == (P.X, P.Z) == (X, Z)

    @pytest.mark.parametrize("field", [
        PrimeField(23), QuadExtField(PrimeField(2699))],
        ids=["F_23", "F_2699^2"])
    def test_raw_core_takes_either_form(self, field):
        """`get_3_isog`, `eval_3_isog`, `odd_image` and `odd_codomain`
        give the same values and the same tallies on XZPoints as on plain
        (X, Z) pairs."""
        calls = {
            "get_3_isog": lambda P, K: get_3_isog(K[0]),
            "eval_3_isog": lambda P, K: eval_3_isog(P, K[0]),
            "odd_image": odd_image,
            "odd_codomain": lambda P, K: odd_codomain(K, *P, 5),
        }
        for seed in range(3):
            e = operand_list(field, seed)
            P, K = (e[0], e[1]), [(e[2], e[3]), (e[4], e[5])]
            named = XZPoint(*P), [XZPoint(*Q) for Q in K]
            for name, call in calls.items():
                with field.counting(OpCounter()) as plain:
                    want = call(P, K)
                with field.counting(OpCounter()) as got:
                    assert call(*named) == want, name
                assert got.snapshot() == plain.snapshot(), name


def line_point(field, x, lam):
    """The x-line point of abscissa x (None: infinity), scaled by lam."""
    if x is None:
        return (field(lam), field.zero)
    return (field(x * lam), field(lam))


def assert_line_x(P, want):
    """(X : Z) has abscissa `want`, None meaning infinity."""
    X, Z = P
    if want is None:
        assert Z.is_zero() and not X.is_zero()
    else:
        assert not Z.is_zero() and X == want * Z


def line_c(curve):
    """c = 1 - d/a as the pair (a - d, a): the x-line doubling on E_{a,d}
    reads (a - d)/a only, and its denominator is one only when a is."""
    return curve.a - curve.d, curve.a


def multiple_of(curve, data):
    """(P, m, x(m*P)) for a drawn affine point P other than O and a
    multiplier m whose multiple may lie at infinity."""
    p, a, d = curve.field.p, curve.a.value, curve.d.value
    P = data.draw(st.sampled_from(
        [Q for Q in curve.points() if not Q.is_identity()]))
    m = data.draw(st.integers(1, 12))
    return (P.x.value, P.y.value), m, montgomery_x_mul(
        m, (P.x.value, P.y.value), p, a, d)


class TestXLine:
    """xdbl, xadd and xmul on every class of desk curve (with
    c = (a - d, a)), against x of the Montgomery model's repeated addition,
    which passes the points at infinity, and against the full projective
    law where it is defined."""

    @settings(max_examples=150)
    @given(curve=desk_curves(), data=st.data())
    def test_xdbl(self, curve, data):
        p, a, d = curve.field.p, curve.a.value, curve.d.value
        xy, m, x = multiple_of(curve, data)
        lam = data.draw(st.integers(1, p - 1))
        got = xdbl(line_point(curve.field, x, lam), line_c(curve))
        assert_line_x(got, montgomery_x_mul(2 * m, xy, p, a, d))
        if m == 1:
            try:
                X, _, Z = curve.double_proj(pt(curve, *xy).projective())
            except ExceptionalPair:
                return
            assert X * got[1] == got[0] * Z

    @settings(max_examples=150)
    @given(curve=desk_curves(), data=st.data())
    def test_xadd(self, curve, data):
        """mP + nP from (m - n)P, for (m - n)P neither O nor (-1, 0)."""
        p, a, d = curve.field.p, curve.a.value, curve.d.value
        xy, n, xn = multiple_of(curve, data)
        k = data.draw(st.integers(1, 12))
        xk = montgomery_x_mul(k, xy, p, a, d)
        assume(xk not in (1, p - 1))
        xm = montgomery_x_mul(n + k, xy, p, a, d)
        lams = data.draw(st.tuples(*[st.integers(1, p - 1)] * 3))
        field = curve.field
        got = xadd(line_point(field, xm, lams[0]),
                   line_point(field, xn, lams[1]),
                   line_point(field, xk, lams[2]))
        assert_line_x(got, montgomery_x_mul(2 * n + k, xy, p, a, d))
        full = [montgomery_scalar_mul(j, xy, p, a, d) for j in (n + k, n)]
        if None not in full:
            try:
                X, _, Z = curve.add_proj(*(pt(curve, *Q).projective()
                                           for Q in full))
            except ExceptionalPair:
                return
            assert X * got[1] == got[0] * Z

    @settings(max_examples=150)
    @given(curve=desk_curves(), data=st.data())
    def test_xmul(self, curve, data):
        """l * mP for l in {3, 5, 7, 9}, mP neither O nor (-1, 0); for
        m = 1 also against `scalar_mul` where it is defined."""
        p, a, d = curve.field.p, curve.a.value, curve.d.value
        xy, m, x = multiple_of(curve, data)
        assume(x not in (1, p - 1))
        l = data.draw(st.sampled_from([3, 5, 7, 9]))
        lam = data.draw(st.integers(1, p - 1))
        got = xmul(l, line_point(curve.field, x, lam), line_c(curve))
        assert_line_x(got, montgomery_x_mul(l * m, xy, p, a, d))
        if m == 1:
            try:
                Q = curve.scalar_mul(l, pt(curve, *xy))
            except ExceptionalPair:
                return
            assert Q.x * got[1] == got[0]

    @settings(max_examples=60)
    @given(curve=desk_curves(), data=st.data())
    def test_xladder(self, curve, data):
        """(kP, (k+1)P) for every k in 1..40, so for k whose second bit
        is 0 (2, 4, 5, ...) and 1 (3, 6, 7, ...), from any scaling of P,
        P neither O nor (-1, 0)."""
        p, a, d = curve.field.p, curve.a.value, curve.d.value
        P = data.draw(st.sampled_from(
            [Q for Q in curve.points() if not Q.y.is_zero()]))
        xy = (P.x.value, P.y.value)
        lam = data.draw(st.integers(1, p - 1))
        start, c = line_point(curve.field, xy[0], lam), line_c(curve)
        want = [montgomery_x_mul(k, xy, p, a, d) for k in range(1, 42)]
        for k in range(1, 41):
            lo, hi = xladder(k, start, c)
            assert_line_x(lo, want[k - 1])
            assert_line_x(hi, want[k])

    @pytest.mark.parametrize("k", [0, -1])
    def test_xladder_rejects_k_below_one(self, e23, k):
        with pytest.raises(ValueError):
            xladder(k, line_point(e23.field, 3, 1), line_c(e23))

    @pytest.mark.parametrize("l", [3, 5, 7])
    def test_xmul_of_o_and_order_two(self, e23, l):
        """The two points outside xadd's domain give (0 : 0)."""
        c = line_c(e23)
        for x in (1, -1):
            X, Z = xmul(l, line_point(e23.field, x, 3), c)
            assert X.is_zero() and Z.is_zero()


class TestRecoverXY:
    """recover_xy: kR from R and the ladder's (kR, (k+1)R)."""

    @settings(max_examples=80)
    @given(curve=desk_curves(), extend=st.booleans(), data=st.data())
    def test_matches_the_montgomery_model(self, curve, extend, data):
        """For every k in 1..40 whose kR is affine, the Montgomery model's
        kR, x and y both, from scaled ladder outputs, on desk curves over
        F_p and, for p = 3 (mod 4), lifted to F_{p^2}; R is neither O nor
        (-1, 0).  Small R
        meet (k+1)R = O, kR = R, kR = O and kR = (-1, 0)."""
        p, a, d = curve.field.p, curve.a.value, curve.d.value
        R = data.draw(st.sampled_from(
            [Q for Q in curve.points() if not Q.y.is_zero()]))
        xy = (R.x.value, R.y.value)
        lams = data.draw(st.tuples(*[st.integers(1, p - 1)] * 2))
        if extend and p % 4 == 3:
            field = QuadExtField(curve.field)
            curve = EdwardsCurve(field, field(a), field(d))
        field, c = curve.field, line_c(curve)
        start = (field(xy[0]), field.one)
        for k in range(1, 41):
            want = montgomery_scalar_mul(k, xy, p, a, d)
            if want is None:
                continue
            lo, hi = xladder(k, start, c)
            lo, hi = ((X * field(lam), Z * field(lam))
                      for (X, Z), lam in zip((lo, hi), lams))
            got = recover_xy((field(xy[0]), field(xy[1])), lo, hi,
                             curve.a, curve.d)
            assert tuple(n / d for n, d in got) == (field(want[0]),
                                                     field(want[1]))


def random_point(curve, rng):
    """A point of `curve` with a random x, either sign."""
    while True:
        try:
            P = recover_y(curve.field.random_element(rng), curve)
        except (ExceptionalInput, NotOnCurve):
            continue
        return P.neg() if rng.randrange(2) else P


# Secrets at their edges: none, one bit, the top secrets 3^3 - 1 and
# 5^2 - 1 at p = 2699 and 3^74 - 1 at 247 bits.
EDGE_SECRETS = [0, 1, 3 ** 3 - 1, 5 ** 2 - 1, 3 ** 74 - 1]


class TestLadder:
    """ladder3pt: x(P + k*Q) from x(P), x(Q) and x(P - Q)."""

    @settings(max_examples=120)
    @given(curve=desk_curves(), extend=st.booleans(), data=st.data())
    def test_matches_the_affine_law(self, curve, extend, data):
        """On desk curves over F_p and, for p = 3 (mod 4), over F_{p^2},
        for random P and Q
        (independent but for rare draws) and edge or random k, the x of
        E.add(P, E.scalar_mul(k, Q)); if a difference the ladder meets is
        O or (-1, 0), it raises.  Draws whose affine oracle walks through
        a point at infinity are discarded."""
        if extend and curve.field.p % 4 == 3:
            field = QuadExtField(curve.field)
            curve = EdwardsCurve(field, field(curve.a.value),
                                 field(curve.d.value))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        P, Q = random_point(curve, rng), random_point(curve, rng)
        k = data.draw(st.sampled_from(EDGE_SECRETS) | st.integers(0, 2 ** 16))
        lam = curve.field(data.draw(st.integers(1, curve.field.p - 1)))
        try:
            want = curve.add(P, curve.scalar_mul(k, Q))
            D = curve.add(P, Q.neg())
            degenerate = any(curve.add(P, curve.scalar_mul(a, Q)).y.is_zero()
                             for a in set(ladder_offsets(k)))
        except ExceptionalPair:
            assume(False)
        one = curve.field.one
        args = (k, (P.x, one), (Q.x, one), (D.x * lam, lam), line_c(curve))
        if degenerate:
            with pytest.raises(ExceptionalInput):
                ladder3pt(*args)
        else:
            assert_line_x(ladder3pt(*args), want.x)

    @pytest.fixture(scope="class")
    def basis(self):
        """A basis of E[27] at p = 2699: no difference P + a*Q is O or
        (-1, 0)."""
        params = setup(3, 2, seed=11)
        E, b = params.curve, params.basis_a
        one = E.field.one
        return E, ((b.P.x, one), (b.Q.x, one), b.diff, E.xline)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 26, 2 ** 40 + 3, 3 ** 74 - 1])
    def test_costs(self, basis, k):
        """A k of b bits costs b `xadd`s and b - 1 `xdbl`s, and no
        inversion."""
        E, (P, Q, D, c) = basis
        b = k.bit_length()
        ctx = OpCounter()
        with E.field.counting(ctx):
            ladder3pt(k, P, Q, D, c)
        xadd_cost, xdbl_cost = (4, 2, 0, 6), (3, 2, 0, 4)
        assert (ctx.ext_m, ctx.ext_s, ctx.ext_i, ctx.ext_a) == tuple(
            b * u + max(b - 1, 0) * v for u, v in zip(xadd_cost, xdbl_cost))

    def test_zero_returns_p(self, basis):
        _, (P, Q, D, c) = basis
        assert ladder3pt(0, P, Q, D, c) is P

    def test_rejects_negative_k(self, basis):
        _, (P, Q, D, c) = basis
        with pytest.raises(ValueError):
            ladder3pt(-1, P, Q, D, c)

    @pytest.mark.parametrize("x", [1, -1])
    def test_rejects_o_and_order_two_differences(self, e23, x):
        """D = O (X = Z) or (-1, 0) (X = -Z), scaled, is refused at the
        first bit that reads it."""
        f, c = e23.field, line_c(e23)
        P, Q = line_point(f, 3, 1), line_point(f, 2, 1)
        with pytest.raises(ExceptionalInput):
            ladder3pt(1, P, Q, line_point(f, x, 5), c)
        with pytest.raises(ExceptionalInput):
            ladder3pt(2, line_point(f, x, 5), Q, P, c)


class TestOddImage:
    def test_eval_3_is_the_one_point_product(self, e23, f23):
        """eval_3_isog is odd_image with one projective representative,
        to the representative, on every point of E_{-1} over F_23."""
        K1 = xz(f23, -10 * 4, 4)
        for P in e23.points():
            Q = xz(f23, P.x.value * 3, 3)
            assert eval_3_isog(Q, K1) == odd_image(Q, [K1])

    def test_affine_and_projective_kernels_agree(self, e19, f19):
        """The 5-isogeny of the worked example, kernel x = 6, -8, given
        affine (Z_i = 1) and scaled, against the raw full map."""
        for P in e19.points():
            Q = (P.x * 2, f19(2))
            affine = odd_image(Q, [(f19(6), f19.one), (f19(-8), f19.one)])
            proj = odd_image(Q, [(f19(6 * 5), f19(5)), (f19(-8 * 7), f19(7))])
            assert affine[0] * proj[1] == proj[0] * affine[1]
            assert affine[0] == full_map_x(P, [6, -8], 19, -1) * affine[1]


# Exact costs of the x-line primitives at p = 23: (M, S, I, A).  The
# doubling constant's denominator is one but in the `_projective` rows;
# an affine kernel, Z_i = 1, costs what a projective one does.
LINE_COSTS = {
    "xdbl": (3, 2, 0, 4),
    "xdbl_projective": (4, 2, 0, 4),
    "xadd": (4, 2, 0, 6),
    "xmul3": (7, 4, 0, 10),
    "xmul5": (11, 6, 0, 16),
    "xmul3_projective": (8, 4, 0, 10),
    "xmul5_projective": (12, 6, 0, 16),
    "xladder1": (3, 2, 0, 4),
    "xladder2": (7, 4, 0, 10),
    "xladder3": (10, 6, 0, 14),
    "xladder40": (35, 20, 0, 50),
    "odd_image_affine_s1": (4, 2, 0, 6),
    "odd_image_affine_s2": (8, 2, 0, 8),
    "odd_image_projective_s1": (4, 2, 0, 6),
    "odd_image_projective_s2": (8, 2, 0, 8),
    "eval_3_isog": (4, 2, 0, 6),
    "recover_xy_a1": (11, 4, 0, 14),
    "recover_xy": (12, 4, 0, 14),
}


class TestLineCosts:
    @pytest.mark.parametrize("name", sorted(LINE_COSTS))
    def test_exact(self, f23, name):
        c, P, Q, D = (f23(2), f23(1)), (f23(3), f23(5)), (f23(7), f23(11)), (
            f23(4), f23(9))
        cp = (f23(2), f23(5))
        ks = [f23(6), f23(8)]
        K, A = [*zip(ks, [f23(13), f23(17)])], [*zip(ks, [f23(1)] * 2)]
        R = (f23(3), f23(6))
        ops = {
            "xdbl": lambda: xdbl(P, c),
            "xdbl_projective": lambda: xdbl(P, cp),
            "xadd": lambda: xadd(P, Q, D),
            "xmul3": lambda: xmul(3, P, c),
            "xmul5": lambda: xmul(5, P, c),
            "xmul3_projective": lambda: xmul(3, P, cp),
            "xmul5_projective": lambda: xmul(5, P, cp),
            "xladder1": lambda: xladder(1, P, c),
            "xladder2": lambda: xladder(2, P, c),
            "xladder3": lambda: xladder(3, P, c),
            "xladder40": lambda: xladder(40, P, c),
            "odd_image_affine_s1": lambda: odd_image(P, A[:1]),
            "odd_image_affine_s2": lambda: odd_image(P, A),
            "odd_image_projective_s1": lambda: odd_image(P, K[:1]),
            "odd_image_projective_s2": lambda: odd_image(P, K),
            "eval_3_isog": lambda: eval_3_isog(XZPoint(*P), XZPoint(*Q)),
            "recover_xy_a1": lambda: recover_xy(R, Q, D, f23(1), f23(-1)),
            "recover_xy": lambda: recover_xy(R, Q, D, f23(5), f23(7)),
        }
        ctx = OpCounter()
        with f23.counting(ctx):
            ops[name]()
        assert (ctx.m, ctx.s, ctx.i, ctx.a) == LINE_COSTS[name]


P247 = 4 * 3 ** 74 * 5 ** 55 - 1


def get_3_pair(X, Z):
    params = get_3_isog((X, Z))
    return params.D, params.C


def image_and_products(P, K):
    """`odd_image`'s image and the two products it squares, as
    `OddIsogeny.image` takes them from `xonly._odd`."""
    return _odd(P, K, True)


def lists(K):
    """A kernel's points (X_i, Z_i) as the two lists, X_i and Z_i, that
    the counted oracles take; splitting them counts nothing."""
    return [X for X, _ in K], [Z for _, Z in K]


def oracle_odd_image(P, K):
    return counted_odd_image(P, *lists(K))


def oracle_odd(P, K):
    return counted_odd(P, *lists(K))


def oracle_odd_codomain(K, D, C, l):
    return counted_odd_codomain(*lists(K), D, C, l)


# Each raw x-line formula, its counted oracle, and the operands it takes
# from a list e of random elements that ends with the field's one: both
# C branches of `xdbl` and of the codomain, and kernels with Z_i = 1
# (affine, as from an affine generator) and with random Z_i (projective).
RAW_FORMULAS = {
    "xdbl": (xdbl, counted_xdbl, lambda e: ((e[0], e[1]), (e[2], e[3]))),
    "xdbl_c1": (xdbl, counted_xdbl, lambda e: ((e[0], e[1]), (e[2], e[-1]))),
    "xadd": (xadd, counted_xadd,
             lambda e: ((e[0], e[1]), (e[2], e[3]), (e[4], e[5]))),
    "get_3_isog": (get_3_pair, counted_get_3_isog, lambda e: (e[0], e[1])),
    **{f"odd_{kind}_s{s}_{shape}": (
        raw, oracle, lambda e, s=s, shape=shape: (
            (e[0], e[1]), [*zip(e[2:2 + s], e[5:5 + s]
                                if shape == "projective" else [e[-1]] * s)]))
       for kind, raw, oracle in (
           ("image", odd_image, oracle_odd_image),
           ("products", image_and_products, oracle_odd))
       for s in (1, 2, 3) for shape in ("affine", "projective")},
    **{f"odd_codomain_l{l}{suffix}": (
        odd_codomain, oracle_odd_codomain,
        lambda e, l=l, unit=unit: ([*zip(e[2:2 + l // 2], e[6:6 + l // 2])],
                                   e[0], e[-1] if unit else e[1], l))
       for l in (5, 7, 9) for unit, suffix in ((False, ""), (True, "_c1"))},
}


def operand_list(field, seed):
    """Ten random elements of `field`, then its one."""
    rng = random.Random(seed)
    return [field.random_element(rng) for _ in range(10)] + [field.one]


class TestRawCore:
    """The raw-int x-line formulas against their counted oracle, the
    element formulas of tests/oracles.py: equal values and equal M/S/I/A
    and ext_* tallies, over F_p and over F_{p^2} (p = 2699 and the
    247-bit p)."""

    @pytest.fixture(scope="class", params=[23, 2699, P247],
                    ids=["F_23", "F_2699^2", "F_p247^2"])
    def field(self, request):
        base = PrimeField(request.param)
        return base if request.param == 23 else QuadExtField(base)

    @pytest.mark.parametrize("name", sorted(RAW_FORMULAS))
    def test_matches_the_oracle(self, field, name):
        raw, oracle, operands = RAW_FORMULAS[name]
        for seed in range(4):
            args = operands(operand_list(field, seed))
            with field.counting(OpCounter()) as want:
                expected = oracle(*args)
            with field.counting(OpCounter()) as got:
                assert raw(*args) == expected
            assert got.snapshot() == want.snapshot()

    @pytest.mark.parametrize("c1", [1, 2698])
    def test_c_with_real_part_one_is_not_one(self, c1):
        """C = 1 + c1 i is not one: `xdbl` and the codomain take the
        branch of a C other than one, as their oracles do."""
        field = QuadExtField(PrimeField(2699))
        e = operand_list(field, 3)
        C = field(1, c1)
        for raw, oracle, args in (
                (xdbl, counted_xdbl, ((e[0], e[1]), (e[2], C))),
                (odd_codomain, oracle_odd_codomain,
                 ([*zip(e[2:4], e[6:8])], e[0], C, 5))):
            with field.counting(OpCounter()) as want:
                expected = oracle(*args)
            with field.counting(OpCounter()) as got:
                assert raw(*args) == expected
            assert got.snapshot() == want.snapshot()

    def test_fields_cover_every_tally_column(self):
        """The tally rows have two columns, F_p and F_{p^2}, and `xdbl`
        over F_23 and F_{2699^2} adds the row of its own."""
        assert len(XDBL) == 2
        for p, col in ((23, FP), (2699, FP2)):
            field = PrimeField(p) if col == FP else QuadExtField(PrimeField(p))
            e = operand_list(field, 0)
            with field.counting(OpCounter()) as got:
                xdbl((e[0], e[1]), (e[2], e[3]))
            m, s, a, em, es, ea = XDBL[col]
            assert got.snapshot() == (m, s, 0, a, em, es, 0, ea)

    def test_no_element_arithmetic(self, monkeypatch):
        """Over the 247-bit field, the raw formulas and the ladders built
        on them return without one F_{p^2} element product, square, sum
        or difference."""
        field = QuadExtField(PrimeField(P247))
        e = operand_list(field, 1)
        P, Q, D, c = (e[0], e[1]), (e[2], e[3]), (e[4], e[5]), (e[6], e[7])

        def refuse(*args, **kwargs):
            raise AssertionError("F_{p^2} element arithmetic called")

        for name in ("__mul__", "square", "__add__", "__sub__"):
            monkeypatch.setattr(QuadExtElement, name, refuse)
        xdbl(P, c)
        xdbl(P, (e[6], field.one))
        xadd(P, Q, D)
        xmul(3, P, c)
        xmul(5, P, c)
        xladder(3 ** 20, P, c)
        ladder3pt(3 ** 20 + 1, P, Q, D, c)
        odd_image(P, [*zip(e[8:10], e[6:8])])
        get_3_isog(P)

    @pytest.mark.parametrize("name", sorted(RAW_FORMULAS))
    def test_mixed_moduli_fail(self, name):
        """Each operand in turn from F_{2699^2}, the rest from the 247-bit
        field: FieldMismatch, as the element operators raise."""
        raw, _, operands = RAW_FORMULAS[name]
        e = operand_list(QuadExtField(PrimeField(P247)), 2)
        stray = operand_list(QuadExtField(PrimeField(2699)), 2)
        raw(*operands(e))
        for i in range(len(e)):
            mixed = e[:i] + [stray[i]] + e[i + 1:]
            if operands(mixed) != operands(e):
                with pytest.raises(FieldMismatch):
                    raw(*operands(mixed))
