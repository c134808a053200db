import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edwards_isogeny import (DivisionByZero, FieldMismatch, NotASquare,
                             OpCounter, PrimeField, QuadExtField)

from conftest import DESK_PRIMES
from oracles import (euler_chi, naive_fp2_inverse, naive_fp2_mul,
                     naive_fp2_square)


@pytest.fixture
def f19_2():
    return QuadExtField(PrimeField(19))


@pytest.fixture
def f23_2():
    return QuadExtField(PrimeField(23))


@pytest.fixture
def f11_2():
    return QuadExtField(PrimeField(11))


class TestModel:
    def test_default_beta_for_3_mod_4(self, f19_2):
        assert f19_2.beta == -1

    @pytest.mark.parametrize("p", [13, 29, 1009])
    def test_refuses_1_mod_4(self, p):
        """-1 is a square mod p = 1 (mod 4), so F_p(i) with i^2 = -1 is
        no field: refused, as PrimeField refuses a bad modulus."""
        with pytest.raises(ValueError, match=r"p = 3 \(mod 4\)"):
            QuadExtField(PrimeField(p))

    def test_size(self, f19_2):
        assert f19_2.size == 361
        assert f19_2.degree == 2


class TestArithmetic:
    def test_i_squared(self, f19_2):
        i = f19_2(0, 1)
        assert i.square() == f19_2(-1)
        assert i * i == f19_2(18, 0)

    def test_norm_product(self, f19_2):
        # (1 + i)(1 - i) = 1 - i^2 = 2
        assert f19_2(1, 1) * f19_2(1, -1) == f19_2(2)

    def test_inverse_by_product(self, f23_2):
        x = f23_2(1, 2)
        assert x * x.inverse() == f23_2.one

    def test_invert_zero(self, f23_2):
        with pytest.raises(DivisionByZero):
            f23_2.zero.inverse()

    def test_agrees_with_base_field(self, f23_2):
        """Arithmetic restricted to c1 = 0 is exactly base-field
        arithmetic."""
        base = f23_2.base
        for a in range(23):
            for b in range(23):
                ea, eb = f23_2(a), f23_2(b)
                assert ea + eb == base(a) + base(b)
                assert ea - eb == base(a) - base(b)
                assert (ea * eb).c1 == 0
                assert (ea * eb).c0 == base(a) * base(b)
        assert f23_2(7).square() == base(7).square()
        assert f23_2(7).inverse() == base(7).inverse()

    def test_square_matches_mul(self, f19_2):
        for c0 in range(0, 19, 3):
            for c1 in range(0, 19, 4):
                x = f19_2(c0, c1)
                assert x.square() == x * x

    def test_pow(self, f19_2):
        x = f19_2(3, 5)
        acc = f19_2.one
        for k in range(8):
            assert x ** k == acc
            acc = acc * x


class TestCounting:
    def test_both_tallies(self, f19_2):
        ctx = OpCounter()
        with f19_2.counting(ctx):
            f19_2(2, 3) * f19_2(4, 5)
        assert ctx.ext_m == 1
        assert ctx.m == 3          # Karatsuba
        with f19_2.counting(ctx):
            f19_2(2, 3).square()
        assert ctx.ext_s == 1
        assert ctx.m == 5          # complex-style squaring: 2 more muls
        with f19_2.counting(ctx):
            f19_2(2, 3).inverse()
        assert ctx.ext_i == 1
        assert ctx.i == 1


class TestChiAndSqrt:
    def test_base_elements_are_squares(self, f23_2):
        """Every base-field element becomes a square in the extension."""
        for v in range(1, 23):
            assert f23_2.chi(f23_2(v)) == 1

    def test_chi_counts(self, f11_2):
        values = [f11_2(a, b) for a in range(11) for b in range(11)]
        chis = [f11_2.chi(x) for x in values]
        assert chis.count(0) == 1
        assert chis.count(1) == 60     # (q - 1)/2 squares
        assert chis.count(-1) == 60

    def test_sqrt_every_square(self, f11_2):
        seen = set()
        for a in range(11):
            for b in range(11):
                sq = f11_2(a, b).square()
                key = (sq.c0.value, sq.c1.value)
                if key in seen:
                    continue
                seen.add(key)
                r = f11_2.sqrt(sq)
                assert r.square() == sq

    def test_sqrt_rejects_nonsquare(self, f11_2):
        for a in range(11):
            for b in range(11):
                x = f11_2(a, b)
                if f11_2.chi(x) == -1:
                    with pytest.raises(NotASquare):
                        f11_2.sqrt(x)
                    return
        raise AssertionError("no non-square found")


class TestSerialization:
    def test_wire_form(self, f19_2):
        x = f19_2(0x12, 0x3)
        assert x.to_str() == "12+3*i"
        assert f19_2.parse(x.to_str()) == x

    def test_parse_plain(self, f19_2):
        assert f19_2.parse("a") == f19_2(10)


# Every OpCounter field, in `OpCounter.snapshot` order
# (M, S, I, A, ext_M, ext_S, ext_I, ext_A), and the value, for one
# F_{p^2} operation on x = 2 + 3i and y = 4 + 5i.
TALLY_OPS = {
    "x + y": lambda x, y, base: x + y,
    "x - y": lambda x, y, base: x - y,
    "-x": lambda x, y, base: -x,
    "x * y": lambda x, y, base: x * y,
    "x.square()": lambda x, y, base: x.square(),
    "x.inverse()": lambda x, y, base: x.inverse(),
    "x.norm()": lambda x, y, base: x.norm(),
    "x / y": lambda x, y, base: x / y,
    "x ** 0": lambda x, y, base: x ** 0,
    "x ** 1": lambda x, y, base: x ** 1,
    "x ** 5": lambda x, y, base: x ** 5,
    "x ** -3": lambda x, y, base: x ** -3,
    "1 - x": lambda x, y, base: 1 - x,
    "x * 3": lambda x, y, base: x * 3,
    "3 * x": lambda x, y, base: 3 * x,
    "x * base(3)": lambda x, y, base: x * base(3),
    "base(3) * x": lambda x, y, base: base(3) * x,
}

TALLIES = {
    19: {
        "x + y": ((0, 0, 0, 2, 0, 0, 0, 1), "(6+8*i)"),
        "x - y": ((0, 0, 0, 2, 0, 0, 0, 1), "(-2-2*i)"),
        "-x": ((0, 0, 0, 2, 0, 0, 0, 1), "(-2-3*i)"),
        "x * y": ((3, 0, 0, 5, 1, 0, 0, 0), "(-7+3*i)"),
        "x.square()": ((2, 0, 0, 3, 0, 1, 0, 0), "(-5-7*i)"),
        "x.inverse()": ((2, 2, 1, 2, 0, 0, 1, 0), "(6-9*i)"),
        "x.norm()": ((0, 2, 0, 1, 0, 0, 0, 0), "-6"),
        "x / y": ((5, 2, 1, 7, 1, 0, 1, 0), "(-5+7*i)"),
        "x ** 0": ((0, 0, 0, 0, 0, 0, 0, 0), "1"),
        "x ** 1": ((0, 0, 0, 0, 0, 0, 0, 0), "(2+3*i)"),
        "x ** 5": ((7, 0, 0, 11, 1, 2, 0, 0), "(8-8*i)"),
        "x ** -3": ((7, 2, 1, 10, 1, 1, 1, 0), "(-7+4*i)"),
        "1 - x": ((0, 0, 0, 2, 0, 0, 0, 1), "(-1-3*i)"),
        "x * 3": ((2, 0, 0, 0, 1, 0, 0, 0), "(6+9*i)"),
        "3 * x": ((2, 0, 0, 0, 1, 0, 0, 0), "(6+9*i)"),
        "x * base(3)": ((2, 0, 0, 0, 1, 0, 0, 0), "(6+9*i)"),
        "base(3) * x": ((2, 0, 0, 0, 1, 0, 0, 0), "(6+9*i)"),
    },
}


class TestExactTallies:
    @pytest.mark.parametrize("p", sorted(TALLIES))
    @pytest.mark.parametrize("op", list(TALLY_OPS))
    def test_tally(self, p, op):
        k = QuadExtField(PrimeField(p))
        x, y = k(2, 3), k(4, 5)
        ctx = OpCounter()
        with k.counting(ctx):
            value = TALLY_OPS[op](x, y, k.base)
        assert (ctx.snapshot(), repr(value)) == TALLIES[p][op]

    @pytest.mark.parametrize("p", [59])
    def test_inverse_is_the_field_element_formulation(self, p):
        """`inverse` on the ints gives the value and base tallies of
        conj(x) * N(x)^-1 written with F_p elements, and one ext I, for
        every nonzero x of F_{59^2}."""
        k = QuadExtField(PrimeField(p))
        for x in k.elements():
            if x.is_zero():
                continue
            with k.counting(OpCounter()) as want:
                n_inv = x.norm().inverse()
                parts = (x.c0 * n_inv, -x.c1 * n_inv)
            with k.counting(OpCounter()) as got:
                inv = x.inverse()
            assert (inv.c0, inv.c1) == parts
            assert got.snapshot() == want.snapshot()[:6] + (1, 0)

    def test_zero_inverse_counts_nothing(self):
        k = QuadExtField(PrimeField(19))
        ctx = OpCounter()
        with k.counting(ctx), pytest.raises(DivisionByZero):
            k.zero.inverse()
        assert ctx.snapshot() == (0,) * 8


# The desk primes over which F_{p^2} = F_p(i), i^2 = -1, is a field.
EXT_PRIMES = [p for p in DESK_PRIMES if p % 4 == 3]


def pair(x) -> tuple:
    return (x.c0.value, x.c1.value)


class TestAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from(EXT_PRIMES), data=st.data())
    def test_matches_raw_pairs(self, p, data):
        """Arithmetic, codecs, hashing and equality on random elements
        of F_{p^2}, for desk primes p = 3 (mod 4), against (c0, c1) int
        pairs with i^2 = -1, a non-residue."""
        beta = -1
        assert euler_chi(beta % p, p) == -1
        k = QuadExtField(PrimeField(p))
        coord = st.integers(-2 * p, 2 * p)
        xs, ys = (data.draw(st.tuples(coord, coord)) for _ in range(2))
        x, y = k(*xs), k(*ys)
        xr = (xs[0] % p, xs[1] % p)
        yr = (ys[0] % p, ys[1] % p)
        assert pair(x) == xr
        assert pair(x + y) == ((xr[0] + yr[0]) % p, (xr[1] + yr[1]) % p)
        assert pair(x - y) == ((xr[0] - yr[0]) % p, (xr[1] - yr[1]) % p)
        assert pair(-x) == (-xr[0] % p, -xr[1] % p)
        assert pair(x * y) == naive_fp2_mul(xr, yr, p, beta)
        assert pair(x.square()) == naive_fp2_square(xr, p, beta)
        inv = naive_fp2_inverse(xr, p, beta)
        if inv is None:
            with pytest.raises(DivisionByZero):
                x.inverse()
        else:
            assert pair(x.inverse()) == inv
        e = data.draw(st.integers(-6 if inv else 0, 12))
        want = (1, 0)
        for _ in range(abs(e)):
            want = naive_fp2_mul(want, inv if e < 0 else xr, p, beta)
        assert pair(x ** e) == want

        assert k.parse(x.to_str()) == x
        assert pair(k.parse(x.to_str())) == xr
        twin = k(xr[0] + p, xr[1] - p)
        assert twin == x and hash(twin) == hash(x)
        n = data.draw(coord)
        assert (x == n) == (xr == (n % p, 0))
        assert (x == k.base(n)) == (xr == (n % p, 0))
        assert (k.base(n) == x) == (xr == (n % p, 0))

        q = data.draw(st.sampled_from([q for q in EXT_PRIMES if q != p]))
        other = QuadExtField(PrimeField(q))
        assert x != other(*xs)
        for foreign in (other(*ys), PrimeField(q)(ys[0])):
            for op in (lambda a, b: a + b, lambda a, b: a - b,
                       lambda a, b: a * b, lambda a, b: b * a,
                       lambda a, b: a / b):
                with pytest.raises(FieldMismatch):
                    op(x, foreign)
