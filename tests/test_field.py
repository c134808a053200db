import pytest

from edwards_isogeny import (DivisionByZero, FieldMismatch, NotASquare,
                             OpCounter, PrimeField, is_probable_prime)

from oracles import euler_chi


@pytest.fixture
def f23():
    return PrimeField(23)


@pytest.fixture
def f19():
    return PrimeField(19)


class TestConstruction:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(21)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            PrimeField(3)

    def test_canonical_residues(self, f23):
        assert f23(-1).value == 22
        assert f23(46).value == 0
        assert f23(-10).value == 13

    def test_signed_display(self, f23):
        assert f23(22).signed() == -1
        assert f23(11).signed() == 11
        assert f23(12).signed() == -11

    def test_hex_round_trip(self, f23):
        x = f23(0x11)
        assert x.to_str() == "11"
        assert f23.parse(x.to_str()) == x

    def test_rejects_non_integers(self, f23):
        for bad in (2.7, 2.0, "5"):
            with pytest.raises(TypeError):
                f23(bad)


class TestArithmetic:
    def test_mul(self, f23):
        # 7*9 = 63 = 2*23 + 17
        assert f23(7) * f23(9) == 17

    def test_square(self, f23):
        assert f23(8).square() == 18
        # (-10)^2 = 100 = 4*23 + 8
        assert f23(-10).square() == 8

    def test_invert_one(self, f23):
        ctx = OpCounter()
        with f23.counting(ctx):
            assert f23.one.inverse() == 1
        assert (ctx.m, ctx.s, ctx.i, ctx.a) == (0, 0, 1, 0)

    def test_invert_zero(self, f23):
        with pytest.raises(DivisionByZero):
            f23.zero.inverse()

    def test_inverse_property(self, f23):
        for v in range(1, 23):
            assert f23(v) * f23(v).inverse() == 1

    def test_mixed_moduli(self, f23, f19):
        with pytest.raises(FieldMismatch):
            f23(2) * f19(2)
        with pytest.raises(FieldMismatch):
            f23(2) + f19(2)

    def test_int_coercion(self, f23):
        assert f23(5) + 20 == 2
        assert 2 * f23(13) == 3
        assert f23(4) - 5 == -1 % 23

    def test_division(self, f23):
        assert f23(9) / f23(2) == 16   # 9 * 12 = 108 = 4*23 + 16


class TestPow:
    def test_pow_values(self, f23):
        for v in (2, 5, 22):
            for k in (0, 1, 2, 3, 11, 22):
                assert (f23(v) ** k).value == pow(v, k, 23)

    def test_pow_negative(self, f23):
        assert f23(5) ** -1 == f23(5).inverse()

    def test_pow_decomposes_into_m_and_s(self, f23):
        ctx = OpCounter()
        with f23.counting(ctx):
            f23(5) ** 5          # 101b: square, square+mul
        assert (ctx.m, ctx.s) == (1, 2)
        assert ctx.i == 0


class TestCounting:
    def test_kinds(self, f23):
        ctx = OpCounter()
        with f23.counting(ctx):
            x = f23(7)
            x + x
            x - x
            x * x
            x.square()
            x.inverse()
        assert (ctx.m, ctx.s, ctx.i, ctx.a) == (1, 1, 1, 2)

    def test_reads_are_free(self, f23):
        ctx = OpCounter()
        with f23.counting(ctx):
            f23(7) * f23(2)
            snap = ctx.snapshot()
            _ = ctx.as_dict()
            _ = repr(ctx)
        assert ctx.snapshot() == snap

    def test_monotone(self, f23):
        ctx = OpCounter()
        prev = ctx.snapshot()
        with f23.counting(ctx):
            x = f23(3)
            for _ in range(20):
                x = x * x + 1
                now = ctx.snapshot()
                assert all(b >= a for a, b in zip(prev, now))
                prev = now

    def test_context_isolation(self, f23):
        outer = f23.counter
        ctx = OpCounter()
        with f23.counting(ctx):
            f23(2) * f23(3)
        assert ctx.m == 1
        assert f23.counter is outer


class TestChi:
    def test_trivial(self, f23):
        assert f23.chi(1) == 1
        assert f23.chi(0) == 0

    def test_minus_one_is_nonresidue(self, f23):
        # p = 23 = 3 mod 4
        assert f23.chi(-1) == -1

    def test_five_mod_19(self, f19):
        # 5^9 = 1 mod 19 by repeated squaring
        assert f19.chi(5) == 1

    def test_matches_euler_oracle(self, f23, f19):
        for field in (f23, f19):
            for v in range(field.p):
                assert field.chi(v) == euler_chi(v, field.p)

    def test_multiplicative(self, f23):
        for x in range(1, 23):
            for y in range(1, 23):
                assert f23.chi(x * y % 23) == f23.chi(x) * f23.chi(y)


class TestSqrt:
    def test_zero(self, f19):
        assert f19.sqrt(0) == 0

    def test_six_mod_19(self, f19):
        assert f19.sqrt(6) == 5

    def test_nonresidue_raises(self, f19):
        with pytest.raises(NotASquare):
            f19.sqrt(2)

    def test_square_round_trip(self, f23):
        for v in range(23):
            if f23.chi(v) >= 0:
                r = f23.sqrt(v)
                assert r.square() == v
                assert r.value <= 23 - r.value   # canonical smaller root

    def test_tonelli_shanks_branch(self):
        f29 = PrimeField(29)   # 29 = 1 mod 4
        for v in range(29):
            if f29.chi(v) >= 0:
                assert f29.sqrt(v).square() == v


class TestPrimality:
    def test_small(self):
        assert is_probable_prime(59)
        assert is_probable_prime(179)
        assert is_probable_prime(2699)
        assert not is_probable_prime(1)
        assert not is_probable_prime(561)      # Carmichael
        assert not is_probable_prime(25326001)

    def test_large(self):
        assert is_probable_prime(2 ** 127 - 1)
        assert not is_probable_prime(2 ** 127 - 3)
        p = 4 * 3 ** 238 * 5 ** 165 - 1
        assert is_probable_prime(p)
        assert not is_probable_prime(p * (2 ** 61 - 1))

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_rejects_no_rounds(self, rounds):
        """Zero rounds would test no base and call any large n prime."""
        n = (2 ** 521 - 1) * (2 ** 607 - 1)
        assert not is_probable_prime(n, rounds=1)
        with pytest.raises(ValueError):
            is_probable_prime(n, rounds=rounds)
