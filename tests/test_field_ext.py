import pytest

from edwards_isogeny import (DivisionByZero, NotASquare, OpCounter,
                             PrimeField, QuadExtField)


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

    def test_default_beta_for_1_mod_4(self):
        k = QuadExtField(PrimeField(13))
        assert k.base.chi(k.beta) == -1

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

    def test_general_beta_arithmetic(self):
        k = QuadExtField(PrimeField(13))       # beta = 2
        x, y = k(3, 7), k(5, 11)
        assert x * y == k((3 * 5 + 2 * 7 * 11) % 13, (3 * 11 + 7 * 5) % 13)
        assert x.square() == x * x
        assert x * x.inverse() == k.one


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

    def test_sqrt_general_beta(self):
        """p = 13 needs i^2 = 2; every square has a root, every
        non-square is rejected."""
        k = QuadExtField(PrimeField(13))
        assert k.beta == 2
        for a in range(13):
            for b in range(13):
                x = k(a, b)
                if k.chi(x) == -1:
                    with pytest.raises(NotASquare):
                        k.sqrt(x)
                else:
                    assert k.sqrt(x).square() == x

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
