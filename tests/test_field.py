import math
import random

import pytest

from edwards_isogeny import (DivisionByZero, FieldMismatch, NotASquare,
                             OpCounter, PrimeField, is_probable_prime)
from edwards_isogeny import field
from edwards_isogeny.field import (MAX_MODULUS_BITS, _MR_DETERMINISTIC_BOUND,
                                   _SMALL_PRIMES, _jacobi, _lucas_chain,
                                   _lucas_proof)
from edwards_isogeny.supersingular import MAX_TARGET_BITS, MAX_TOLERANCE

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

    def test_modulus_bound_admits_every_search_result(self):
        """A search returns primes within the tolerance of a target, so
        of at most MAX_TARGET_BITS + MAX_TOLERANCE bits; a prime of the
        searched form that long is a field modulus."""
        assert MAX_TARGET_BITS + MAX_TOLERANCE == MAX_MODULUS_BITS
        p = 4 * 3 ** 933 * 5 ** 258 - 1
        assert p.bit_length() == MAX_MODULUS_BITS
        assert PrimeField(p).p == p

    def test_long_modulus_runs_no_round(self, monkeypatch):
        """A modulus above the bound is refused before any Miller-Rabin
        round: one round at 16,384 bits takes seconds, and a prime would
        take 64."""
        def no_round(a, n):
            raise AssertionError("Miller-Rabin round run")
        monkeypatch.setattr(field, "_proves_composite", no_round)
        n = 2 ** MAX_MODULUS_BITS + 1
        while math.gcd(n, field._TRIAL_PRODUCT) != 1:
            n += 2
        assert n.bit_length() == MAX_MODULUS_BITS + 1
        with pytest.raises(ValueError, match="2081 bits exceeds 2080"):
            PrimeField(n)

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


def _smooth_up_to(limit: int) -> list[int]:
    """Every m <= limit whose prime factors all lie in _SMALL_PRIMES."""
    found = [1]
    for q in _SMALL_PRIMES:
        found = [x * q ** e for x in found
                 for e in range(int(math.log(limit / x, q)) + 1)]
    return sorted(x for x in found if x <= limit)


def _sidh(cof: int, m: int, n: int) -> int:
    return cof * 3 ** m * 5 ** n - 1


class TestLucasProof:
    """The N+1 test for n with n + 1 smooth over _SMALL_PRIMES."""

    def test_agrees_with_miller_rabin_below_a_million(self):
        """Every odd n in (5, 10^6) with smooth n + 1, squares and
        multiples of small primes included: the proof decides, and its
        answer is that of the deterministic Miller-Rabin test."""
        ns = [m - 1 for m in _smooth_up_to(10 ** 6) if m % 2 == 0 and m > 6]
        assert len(ns) > 20_000
        assert {9, 49, 81, 169, 289} <= set(ns)
        assert ns[-1] < 10 ** 6 < _MR_DETERMINISTIC_BOUND
        wrong = [n for n in ns if _lucas_proof(n) is not is_probable_prime(n)]
        assert wrong == []

    def test_squares_have_no_discriminant(self, monkeypatch):
        """Squares are refused before the search for D, which would not
        end before it met a multiple of the root."""
        def no_search(*args):
            raise AssertionError("searched for D")
        monkeypatch.setattr(field, "_jacobi", no_search)
        for n in (9, 49, 81, 169, 289, 47 ** 2, 239 ** 2):
            assert _lucas_proof(n) is False

    def test_lucas_pseudoprimes_are_rejected(self):
        """n | U_{n+1} for every P at 323 = 17*19 and 11663 = 107*109;
        a zero U_{(n+1)/2} after Jacobi(Q/n) = -1 shows them composite."""
        for n in (323, 11663):
            assert _lucas_chain(1, -1, n + 1, n)[0] == 0
            assert _lucas_proof(n) is False

    @pytest.mark.parametrize("cof,m,n", [
        (4, 74, 55), (4, 238, 165), (4, 243, 168), (4, 247, 156), (4, 1, 1),
        (4, 2, 1), (8, 2, 1)])
    def test_sidh_primes_are_proven(self, cof, m, n):
        """The 247-bit prime of `setup`, the three reference rows (the
        first two are also the primes `prime-search` finds at seed 1)
        and desk primes."""
        assert _lucas_proof(_sidh(cof, m, n)) is True

    def test_composites_of_the_same_form_are_rejected(self):
        composites = [(cof, m, n) for cof in (4, 8)
                      for m in range(236, 241) for n in range(163, 168)
                      if not is_probable_prime(_sidh(cof, m, n))]
        assert len(composites) > 40
        for cof, m, n in composites:
            assert _lucas_proof(_sidh(cof, m, n)) is False
        assert _lucas_proof(_sidh(4, 238, 165) * _sidh(4, 74, 55)) is None

    def test_no_fallback_for_the_763_bit_row(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Miller-Rabin fallback reached")
        monkeypatch.setattr(field, "_miller_rabin", refuse)
        assert is_probable_prime(_sidh(4, 238, 165))

    def test_fallback_when_the_chains_give_out(self, monkeypatch):
        """The 247-bit prime needs several chains; with one allowed the
        proof runs one and gives up, and the remaining Miller-Rabin
        rounds decide."""
        p = _sidh(4, 74, 55)
        lengths = []
        chain = field._lucas_chain

        def counted(P, Q, k, n):
            lengths.append(k)
            return chain(P, Q, k, n)
        monkeypatch.setattr(field, "_LUCAS_CHAINS", 1)
        monkeypatch.setattr(field, "_lucas_chain", counted)
        assert _lucas_proof(p) is None
        assert sum(k > 2 ** 64 for k in lengths) == 1
        assert is_probable_prime(p)

    def test_fallback_continues_the_seeded_bases(self, monkeypatch):
        """Without a proof, n > bound gets `_MR_ROUNDS` bases in all: the
        same sequence, drawn from random.Random(n), as before the proof."""
        p = _sidh(4, 238, 165)
        bases = []

        def record(a, n):
            bases.append(a)
            return False
        monkeypatch.setattr(field, "_lucas_proof", lambda n: None)
        monkeypatch.setattr(field, "_proves_composite", record)
        monkeypatch.setattr(field, "_MR_ROUNDS", 5)
        assert is_probable_prime(p)
        rng = random.Random(p)
        assert bases == [rng.randrange(2, p - 1) for _ in range(5)]

    def test_small_factors_cost_no_round(self, monkeypatch):
        def no_round(a, n):
            raise AssertionError("Miller-Rabin round run")
        monkeypatch.setattr(field, "_proves_composite", no_round)
        for q in (53, 997, 9973):
            assert not is_probable_prime(_sidh(4, 238, 165) * q)

    def test_chain_matches_the_recurrence(self):
        """(U_k, V_k, Q^k) against U_{j+1} = P U_j - Q U_{j-1} (and the
        same for V) for small P, Q and every k below 100."""
        n = 2699 * 3
        for P, Q in [(1, -1), (3, 2), (5, 8), (7, -11), (2, 5)]:
            U, V = [0, 1], [2, P]
            for _ in range(100):
                U.append(P * U[-1] - Q * U[-2])
                V.append(P * V[-1] - Q * V[-2])
            for k in range(1, 100):
                assert _lucas_chain(P, Q, k, n) == (
                    U[k] % n, V[k] % n, pow(Q, k, n))

    def test_jacobi(self):
        for p in (3, 5, 7, 23, 59, 2699):
            for a in range(-30, 30):
                assert _jacobi(a, p) == euler_chi(a, p)
        for p, q in [(3, 5), (7, 7), (17, 19), (59, 2699)]:
            for a in range(-30, 30):
                assert _jacobi(a, p * q) == euler_chi(a, p) * euler_chi(a, q)
