import hashlib
import json
import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edwards_isogeny import (AffinePoint, DeskScaleOnly, EdwardsCurve,
                             EdwardsError, ExceptionalInput, InvalidParameter,
                             IsogenyChain, OddIsogeny, OddKernel, OpCounter,
                             ProtocolError, PrimeField, PublicKey,
                             QuadExtField, count_cyclic_subgroups,
                             derive_shared, keygen, recover_y, run_exchange,
                             setup, sidh)
from edwards_isogeny.isogeny import _carry
from edwards_isogeny.sidh import SIDE_A, SIDE_B

from conftest import (assert_cofactor_walk, assert_images_match_the_full_map,
                      ladder_offsets, pt)


@pytest.fixture(scope="module")
def params59():
    return setup(1, 1, seed=11)


@pytest.fixture(scope="module")
def params2699():
    return setup(3, 2, seed=11)


class TestSetup:
    def test_smallest_instance(self, params59):
        assert params59.p == 59
        assert params59.curve.class_tag == "quadratic"

    def test_modulus_values(self, params2699):
        assert params2699.p == 2699

    def test_179(self):
        assert setup(2, 1, seed=0).p == 179

    @pytest.mark.parametrize("m,n", [(1.5, 1), ("1", 1), (1, None),
                                     (True, 1), (1, False)],
                             ids=["float", "str", "none", "bool-m", "bool-n"])
    def test_non_int_exponents_are_invalid(self, m, n):
        """m and n must be ints.  A bool is refused, although Python
        counts it an int."""
        with pytest.raises(InvalidParameter, match="is not an int"):
            setup(m, n)

    def test_basis_orders(self, params2699):
        E = params2699.curve
        for basis, l, e in [(params2699.basis_a, 3, 3),
                            (params2699.basis_b, 5, 2)]:
            for T in (basis.P, basis.Q):
                assert E.contains(T)
                assert E.scalar_mul(l ** e, T).is_identity()
                assert not E.scalar_mul(l ** (e - 1), T).is_identity()

    def test_basis_independence(self, params2699):
        """Neither basis point's order-l multiple generates the other's
        subgroup."""
        E = params2699.curve
        for basis, l, e in [(params2699.basis_a, 3, 3),
                            (params2699.basis_b, 5, 2)]:
            U = E.scalar_mul(l ** (e - 1), basis.P)
            V = E.scalar_mul(l ** (e - 1), basis.Q)
            R = U
            for _ in range(l - 1):
                assert R != V
                R = E.add(R, U)

    @pytest.mark.parametrize("m,n,seed,bases", [
        (3, 2, 11, [[("976+447*i", "239+394*i"), ("6e8+890*i", "956+8da*i")],
                    [("58f+4a2*i", "96+4b9*i"), ("88+95d*i", "5a2+5c0*i")]]),
        (1, 1, 5, [[("13+0*i", "0+23*i"), ("5+22*i", "21+1a*i")],
                   [("37+32*i", "1c+29*i"), ("37+9*i", "1f+29*i")]]),
    ])
    def test_frozen_bases(self, m, n, seed, bases):
        """Same seed, same draws, same accept/reject decisions: the
        bases never move."""
        params = setup(m, n, seed=seed)
        assert [[(T.x.to_str(), T.y.to_str()) for T in (b.P, b.Q)]
                for b in (params.basis_a, params.basis_b)] == bases

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 2)])
    def test_bases_over_seeds(self, m, n):
        """Exact order l^e, and the walk over <l^(e-1)*P> never meets
        l^(e-1)*Q, for seeds 0-49."""
        for seed in range(50):
            params = setup(m, n, seed=seed)
            E = params.curve
            for basis, l, e in [(params.basis_a, 3, m),
                                (params.basis_b, 5, n)]:
                for T in (basis.P, basis.Q):
                    assert E.scalar_mul(l ** e, T).is_identity()
                    assert not E.scalar_mul(l ** (e - 1), T).is_identity()
                U = E.scalar_mul(l ** (e - 1), basis.P)
                V = E.scalar_mul(l ** (e - 1), basis.Q)
                R = U
                for _ in range(l - 1):
                    assert R != V
                    R = E.add(R, U)

    def test_skips_dependent_partner(self, params2699, monkeypatch):
        """B side (l = 5): draws P0, then 2*P0, whose order-5 multiple is
        2U (dependent, yet x(2U) != x(U)), then an independent point.
        The basis skips the second draw."""
        E, basis_b = params2699.curve, params2699.basis_b
        cofactor = (params2699.p + 1) // 25        # 108, prime to 5
        P0, P2 = basis_b.P, basis_b.Q
        draws = [P0, E.scalar_mul(2, P0), P2]
        monkeypatch.setattr(sidh, "_random_point",
                            lambda curve, rng: draws.pop(0))
        U = E.scalar_mul(5 * cofactor, P0)
        V = E.scalar_mul(10 * cofactor, P0)
        assert V == E.add(U, U) and V.x != U.x
        basis = sidh._torsion_basis(E, 5, 2, random.Random(0))
        assert draws == []
        assert basis.P == E.scalar_mul(cofactor, P0)
        assert basis.Q == E.scalar_mul(cofactor, P2)

    @pytest.mark.parametrize("m,n,side,cofactor", [
        (1, 1, SIDE_A, 20),        # 20 = -1 mod 3: T = -R, T + R = O
        (2, 1, SIDE_B, 36),        # 36 = 1 mod 5: T = R
    ])
    def test_draws_of_order_l(self, m, n, side, cofactor, monkeypatch):
        """Draws that are themselves of order l, where the cofactor
        4*o^f is -1 or 1 mod l: T = -R is the y-recovery's T + R = O
        case, and T = R its x(T) = x(R) case.  Both points are the exact
        multiples."""
        params = setup(m, n, seed=3)
        E, basis = params.curve, params.basis(side)
        R0, R1 = basis.P, basis.Q
        draws = [R0, R1]
        monkeypatch.setattr(sidh, "_random_point",
                            lambda curve, rng: draws.pop(0))
        got = sidh._torsion_basis(E, basis.degree, basis.exponent,
                                  random.Random(0))
        assert draws == []
        assert got.P == E.scalar_mul(cofactor, R0)
        assert got.Q == E.scalar_mul(cofactor, R1)
        assert got.P == (R0.neg() if cofactor % basis.degree == 2 else R0)

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 2)])
    def test_stored_difference_is_x_of_p_minus_q(self, m, n):
        """Each basis keeps x(P - Q), projective, for the secret's ladder."""
        for seed in range(10):
            params = setup(m, n, seed=seed)
            E = params.curve
            for basis in (params.basis_a, params.basis_b):
                X, Z = basis.diff
                assert X == E.add(basis.P, basis.Q.neg()).x * Z

    def test_deterministic(self):
        a = setup(1, 1, seed=5)
        b = setup(1, 1, seed=5)
        assert a.basis_a.P == b.basis_a.P
        assert a.basis_b.Q == b.basis_b.Q

    def test_desk_scale_guard(self):
        with pytest.raises(DeskScaleOnly):
            setup(6, 4, seed=0)

    def test_huge_exponents_are_refused_at_once(self):
        """m + n alone shows p past the limit, so 3^m is never formed and
        the refusal names m and n, not p."""
        with pytest.raises(DeskScaleOnly, match=r"4\*3\^1048576\*5\^1 "):
            setup(2 ** 20, 1)
        with pytest.raises(DeskScaleOnly, match=r"4\*3\^2\*5\^1048576 "):
            setup(2, 2 ** 20, max_p=4 * 3 ** 74 * 5 ** 55 - 1)

    def test_max_p_admits_247_bits(self):
        """`max_p` lifts the desk limit for one call; the default still
        refuses (74, 55)."""
        p = 4 * 3 ** 74 * 5 ** 55 - 1
        assert setup(74, 55, seed=1, max_p=p).p == p
        with pytest.raises(DeskScaleOnly):
            setup(74, 55, seed=1, max_p=p - 1)
        with pytest.raises(DeskScaleOnly):
            setup(74, 55, seed=1)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            setup(2, 2, seed=0)      # 4*9*25 - 1 = 899 = 29 * 31


class TestKeygen:
    def test_chain_degrees(self, params2699):
        kp_a = keygen(params2699, SIDE_A, 7)
        kp_b = keygen(params2699, SIDE_B, 7)
        assert [s.degree for s in kp_a.chain.steps] == [3, 3, 3]
        assert [s.degree for s in kp_b.chain.steps] == [5, 5]

    def test_secret_zero_valid(self, params59):
        kp = keygen(params59, SIDE_A, 0)
        assert kp.chain.degrees == [3]

    @pytest.mark.parametrize("secret", [1.5, "1", None, True, False],
                             ids=["float", "str", "none", "true", "false"])
    def test_non_int_secret_is_protocol_error(self, params59, secret,
                                              monkeypatch):
        """The secret must be an int, a bool refused, and it is checked
        before the ladder runs."""
        def refuse(*args):
            raise AssertionError("ladder3pt called")

        monkeypatch.setattr(sidh, "ladder3pt", refuse)
        with pytest.raises(ProtocolError, match="is not an int"):
            keygen(params59, SIDE_A, secret)

    def test_secret_range(self, params59):
        with pytest.raises(ValueError):
            keygen(params59, SIDE_A, 3)
        with pytest.raises(ValueError):
            keygen(params59, SIDE_B, -1)

    def test_public_images_on_codomain(self, params59):
        for side, l, e in ((SIDE_A, 5, 1), (SIDE_B, 3, 1)):
            kp = keygen(params59, side, 1)
            cod = kp.chain.codomain
            pub = kp.public
            assert cod.d == pub.codomain_d
            for T in (pub.image_p, pub.image_q):
                assert cod.contains(T)
                assert cod.scalar_mul(l ** e, T).is_identity()

    @pytest.mark.parametrize("side", [SIDE_A, SIDE_B])
    def test_ladder_keeps_every_key(self, params2699, side):
        """For every secret at p = 2699 the key equals that of the chain
        from the affine P + k*Q: its d', and the other basis pushed by
        `_carry` and by chain(P)."""
        E, basis = params2699.curve, params2699.basis(side)
        other = params2699.basis(params2699.other(side))
        l, e = basis.degree, basis.exponent
        for secret in range(l ** e):
            R = E.add(basis.P, E.scalar_mul(secret, basis.Q))
            chain = IsogenyChain(E, R, [l] * e)
            public = keygen(params2699, side, secret).public
            images = [public.image_p, public.image_q]
            assert public.codomain_d == chain.codomain.d
            assert images == _carry(chain.steps, (other.P, other.Q))[0]
            assert images == [chain(other.P), chain(other.Q)]

    def test_no_affine_arithmetic(self, params2699, monkeypatch):
        """keygen and derive_shared take each secret kernel on the x-line:
        neither reaches the affine `scalar_mul` or `add`."""
        j, sides = {}, (SIDE_A, SIDE_B)
        keys = {side: keygen(params2699, side, 11) for side in sides}

        def refuse(*args, **kwargs):
            raise AssertionError("affine curve arithmetic called")

        monkeypatch.setattr(EdwardsCurve, "scalar_mul", refuse)
        monkeypatch.setattr(EdwardsCurve, "add", refuse)
        for side in sides:
            kp = keygen(params2699, side, 11)
            assert kp.public == keys[side].public
            j[side] = derive_shared(params2699, kp,
                                    keys[params2699.other(side)].public)
        assert j[SIDE_A] == j[SIDE_B]

    def test_deterministic(self, params59):
        k1 = keygen(params59, SIDE_A, 2)
        k2 = keygen(params59, SIDE_A, 2)
        assert k1.public.codomain_d == k2.public.codomain_d
        assert k1.public.image_p == k2.public.image_p


class TestSharedSecret:
    def test_exhaustive_at_59(self, params59):
        for ka in range(3):
            kp_a = keygen(params59, SIDE_A, ka)
            for kb in range(5):
                kp_b = keygen(params59, SIDE_B, kb)
                j_a = derive_shared(params59, kp_a, kp_b.public)
                j_b = derive_shared(params59, kp_b, kp_a.public)
                assert j_a == j_b

    def test_sampled_at_2699(self, params2699):
        import random
        rng = random.Random(99)
        for _ in range(5):
            ka, kb = rng.randrange(27), rng.randrange(25)
            kp_a = keygen(params2699, SIDE_A, ka)
            kp_b = keygen(params2699, SIDE_B, kb)
            assert (derive_shared(params2699, kp_a, kp_b.public)
                    == derive_shared(params2699, kp_b, kp_a.public))

    def test_final_curves_supersingular(self, params59):
        """Order annihilation on the shared codomains: (p+1) * P' = O
        for random points P'.  A walk that lands on a singular point
        raises and the sample is redrawn (those multiples have order 2
        or 4, beyond the affine law)."""
        import random

        from edwards_isogeny import ExceptionalPair
        rng = random.Random(5)
        kp_a = keygen(params59, SIDE_A, 1)
        kp_b = keygen(params59, SIDE_B, 2)
        for kp in (kp_a, kp_b):
            cod = kp.chain.codomain
            checked = 0
            while checked < 10:
                P = _random_point(cod, rng)
                try:
                    annihilated = cod.scalar_mul(params59.p + 1, P).is_identity()
                except ExceptionalPair:
                    continue
                assert annihilated
                checked += 1

    def test_malformed_public_key(self, params59):
        kp_a = keygen(params59, SIDE_A, 1)
        kp_b = keygen(params59, SIDE_B, 1)
        broken = type(kp_b.public)(
            codomain_d=kp_b.public.codomain_d,
            image_p=kp_b.public.image_p.neg(),
            image_q=kp_b.public.image_p,     # dependent images: bad kernel
        )
        with pytest.raises(ProtocolError):
            derive_shared(params59, kp_a, broken)

    def test_off_curve_image(self, params59):
        kp_a = keygen(params59, SIDE_A, 1)
        kp_b = keygen(params59, SIDE_B, 1)
        bad_point = type(kp_b.public.image_p)(
            kp_b.public.image_p.x, kp_b.public.image_p.x)
        broken = type(kp_b.public)(kp_b.public.codomain_d,
                                   bad_point, kp_b.public.image_q)
        with pytest.raises(ProtocolError):
            derive_shared(params59, kp_a, broken)


class TestPublicKeyValidation:
    """derive_shared takes only images that form a basis of E[l^e]."""

    @pytest.fixture(scope="class")
    def exchange(self):
        params = setup(3, 2, seed=2024)
        return params, {SIDE_A: keygen(params, SIDE_A, 5),
                        SIDE_B: keygen(params, SIDE_B, 7)}

    def test_honest_keys_agree(self, exchange):
        params, kp = exchange
        assert (derive_shared(params, kp[SIDE_A], kp[SIDE_B].public)
                == derive_shared(params, kp[SIDE_B], kp[SIDE_A].public))

    @pytest.mark.parametrize("side", [SIDE_A, SIDE_B])
    @pytest.mark.parametrize("forgery", ["q_is_identity", "p_is_q", "q_is_p",
                                         "q_of_lower_order", "p_is_2q"])
    def test_rejects_images_that_are_no_basis(self, exchange, side, forgery):
        """Each forgery is refused.  P' = 2Q' passes the ladder and the
        order walk, as both images have exact order l^e, and only the
        subgroup check refuses it."""
        params, kp = exchange
        pub = kp[params.other(side)].public
        E = EdwardsCurve(params.field, params.field.one, pub.codomain_d)
        l = params.basis(side).degree
        images = {"q_is_identity": (pub.image_p, E.identity),
                  "p_is_q": (pub.image_q, pub.image_q),
                  "q_is_p": (pub.image_p, pub.image_p),
                  "q_of_lower_order": (pub.image_p,
                                       E.scalar_mul(l, pub.image_q)),
                  "p_is_2q": (E.scalar_mul(2, pub.image_q),
                              pub.image_q)}[forgery]
        match = "do not generate" if forgery == "p_is_2q" else None
        with pytest.raises(ProtocolError, match=match):
            derive_shared(params, kp[side], PublicKey(pub.codomain_d, *images))


    # (secret, j, shift): P' = shift + j*Q', shift O or (-1, 0), and the
    # ladder meets the difference P' + a*Q' = shift for a = -j after its
    # first bit: the offsets of secret 5 are -1, 1, -3 and those of 22
    # are 0, -2, -2, 6, -10.
    @pytest.mark.parametrize("side", [SIDE_A, SIDE_B])
    @pytest.mark.parametrize("secret,j,shift", [
        (5, -1, "O"), (5, 3, "O"), (22, 2, "O"), (22, -6, "O"),
        (22, 10, "O"), (5, -1, "D0"), (5, 3, "D0"), (22, -6, "D0")])
    def test_rejects_degenerate_ladder_difference(self, exchange, side,
                                                  secret, j, shift):
        """Images for which the secret's ladder meets O or (-1, 0) part
        way (P' = -Q' among them): the ladder raises, so derive_shared
        raises ProtocolError and never uses a degenerate sum."""
        params, kp = exchange
        assert -j in ladder_offsets(secret)[1:]
        pub = kp[params.other(side)].public
        E = EdwardsCurve(params.field, params.field.one, pub.codomain_d)
        basis = params.basis(side)
        Q = pub.image_q
        start = E.identity if shift == "O" else AffinePoint(-E.field.one,
                                                            E.field.zero)
        P = E.add(start, E.scalar_mul(j % basis.degree ** basis.exponent, Q))
        with pytest.raises(ExceptionalInput):
            sidh._secret_kernel(E, P, Q, sidh._x_difference(E, P, Q), secret)
        with pytest.raises(ProtocolError):
            derive_shared(params, keygen(params, side, secret),
                          PublicKey(pub.codomain_d, P, Q))


def _random_point(curve, rng):
    from edwards_isogeny.errors import ExceptionalInput, NotOnCurve
    while True:
        x = curve.field.random_element(rng)
        try:
            return recover_y(x, curve)
        except (ExceptionalInput, NotOnCurve):
            continue


class TestChainStrategy:
    @pytest.mark.parametrize("side,degrees", [(SIDE_A, [3, 3, 3]),
                                              (SIDE_B, [5, 5])])
    def test_every_secret_at_2699(self, params2699, side, degrees):
        E, basis = params2699.curve, params2699.basis(side)
        for secret in range(prod(degrees)):
            R = E.add(basis.P, E.scalar_mul(secret, basis.Q))
            assert_cofactor_walk(E, R, degrees)

    @pytest.mark.parametrize("degrees", [[3, 5], [5, 3], [3, 3, 5],
                                         [5, 3, 3]])
    def test_mixed_degrees(self, params2699, degrees):
        """A generator of order prod(degrees) from the basis of setup(3, 2)."""
        E, a, b = params2699.curve, params2699.basis_a, params2699.basis_b
        G = E.add(E.scalar_mul(3 ** (3 - degrees.count(3)), a.P),
                  E.scalar_mul(5 ** (2 - degrees.count(5)), b.P))
        assert_cofactor_walk(E, G, degrees)

    @settings(max_examples=30)
    @given(secret_a=st.integers(0, 26), secret_b=st.integers(0, 24),
           degrees=st.permutations([3, 3, 3, 5, 5]))
    def test_random_secrets_and_orders(self, params2699, secret_a, secret_b,
                                       degrees):
        """Kernel <R_A + R_B> of order 675, in any order of its steps."""
        E = params2699.curve
        a, b = params2699.basis_a, params2699.basis_b
        G = E.add(E.add(a.P, E.scalar_mul(secret_a, a.Q)),
                  E.add(b.P, E.scalar_mul(secret_b, b.Q)))
        assert_cofactor_walk(E, G, degrees)

    @settings(max_examples=20)
    @given(secret_a=st.integers(0, 26), secret_b=st.integers(0, 24),
           degrees=st.sampled_from([[3, 3, 3, 5, 5], [3, 3, 3, 5]]).flatmap(
               st.permutations),
           seed=st.integers(0, 2 ** 32))
    def test_chain_matches_the_oracles(self, params2699, secret_a, secret_b,
                                       degrees, seed):
        """Kernel <R_A + R_B> of order 675, or <5(R_A + R_B)> of order
        135, in any order of its steps: each step's kernel x and d' are
        the full-point oracle's, and random points pushed by `_carry`
        and by chain(P) are the steps' full maps composed.  With one
        degree-5 step, a y sign wrong at degree 5 cannot cancel out."""
        E = params2699.curve
        a, b = params2699.basis_a, params2699.basis_b
        G = E.add(E.add(a.P, E.scalar_mul(secret_a, a.Q)),
                  E.add(b.P, E.scalar_mul(secret_b, b.Q)))
        G = E.scalar_mul(5 ** (2 - degrees.count(5)), G)
        rng = random.Random(seed)
        points = [_random_point(E, rng) for _ in range(3)]
        assert_cofactor_walk(E, G, degrees)
        assert_images_match_the_full_map(E, G, degrees, points)


class TestSubgroupCounts:
    def test_counts_at_59(self, params59):
        """Over F_{p^2} the order-3 kernels number 4 and the order-5
        kernels 6."""
        assert count_cyclic_subgroups(params59.curve, 3) == 4
        assert count_cyclic_subgroups(params59.curve, 5) == 6

    @pytest.mark.parametrize("l", [1, 2, 9])
    def test_rejects_non_odd_prime(self, e23, l):
        with pytest.raises(ValueError):
            count_cyclic_subgroups(e23, l)

    def test_uneven_split_is_typed_error(self, e23, monkeypatch):
        """One order-3 point missing from the scan leaves a count that no
        set of subgroups explains; this must not pass silently."""
        pts = [P for P in e23.points() if P != pt(e23, -10, 9)]
        monkeypatch.setattr(e23, "points", lambda: pts)
        with pytest.raises(EdwardsError):
            count_cyclic_subgroups(e23, 3)


class TestTranscript:
    def test_agreement_and_shape(self):
        out = run_exchange(1, 1, seed=42)
        assert out["agree"] is True
        assert out["shared_j_a"] == out["shared_j_b"]
        assert set(out["counters"]) == {"alice", "bob"}
        assert out["counters"]["alice"]["base"]["M"] > 0
        assert out["counters"]["alice"]["ext"]["M"] > 0

    def test_deterministic(self):
        assert run_exchange(1, 1, seed=7) == run_exchange(1, 1, seed=7)

    @pytest.mark.parametrize("m,n,seed,secrets,counters", [
        (3, 2, 1, (7, 18), {
            "alice": {"base": {"M": 971, "S": 4, "I": 2, "A": 2173},
                      "ext": {"M": 243, "S": 120, "I": 2, "A": 302}},
            "bob": {"base": {"M": 1155, "S": 4, "I": 2, "A": 2379},
                    "ext": {"M": 295, "S": 134, "I": 2, "A": 254}}}),
        (1, 1, 2024, (2, 3), {
            "alice": {"base": {"M": 405, "S": 4, "I": 2, "A": 855},
                      "ext": {"M": 105, "S": 44, "I": 2, "A": 102}},
            "bob": {"base": {"M": 543, "S": 4, "I": 2, "A": 1074},
                    "ext": {"M": 141, "S": 59, "I": 2, "A": 99}}}),
    ])
    def test_exact_counts(self, m, n, seed, secrets, counters):
        """Cost gate: the exact tallies of fixed exchanges are frozen, so
        any change to the arithmetic an exchange performs fails here."""
        out = run_exchange(m, n, seed=seed)
        assert (out["secret_a"], out["secret_b"]) == secrets
        assert out["agree"] is True
        assert out["counters"] == counters

    def test_keygen_counts_at_247_bits(self, monkeypatch):
        """Cost gate at (74, 55), where the chain traversal dominates: the
        base-field M, S, I of both keygens with run_exchange's seed-1
        secrets."""
        p = 4 * 3 ** 74 * 5 ** 55 - 1
        with monkeypatch.context() as patched:
            patched.setattr(sidh, "DESK_PRIME_LIMIT", p)
            params = setup(74, 55, seed=1)
        with pytest.raises(DeskScaleOnly):
            setup(74, 55, seed=1)
        rng = random.Random(2 * 1 + 1)       # run_exchange's secret stream
        secrets = {SIDE_A: rng.randrange(3 ** 74), SIDE_B: rng.randrange(5 ** 55)}
        counts = {}
        for side, secret in secrets.items():
            ctx = OpCounter()
            with params.field.counting(ctx):
                keygen(params, side, secret)
            counts[side] = {k: ctx.as_dict()[k] for k in ("M", "S", "I")}
        # At most a tenth of the affine chain's inversions, and no more M.
        affine = {SIDE_A: {"M": 45063, "I": 2362},
                  SIDE_B: {"M": 48041, "I": 2234}}
        assert all(10 * counts[side]["I"] <= affine[side]["I"]
                   and counts[side]["M"] <= affine[side]["M"]
                   for side in affine)
        assert counts == {SIDE_A: {"M": 21842, "S": 2, "I": 1},
                          SIDE_B: {"M": 26493, "S": 2, "I": 1}}

    def test_setup_counts_at_247_bits(self):
        """Cost gate on setup(74, 55, seed=1): the base-field M, S, I its
        fresh field has counted when it returns, seven draws walked on the
        x-line, subgroups compared projectively and y recovered for the
        four basis points only."""
        p = 4 * 3 ** 74 * 5 ** 55 - 1
        params = setup(74, 55, seed=1, max_p=p)
        counts = params.field.counter.as_dict()
        assert {k: counts[k] for k in ("M", "S", "I")} == {
            "M": 41633, "S": 30, "I": 15}

    def test_derive_counts_at_247_bits(self):
        """Cost gate on derive_shared at (74, 55) with run_exchange's
        seed-1 secrets: its chain inverts nothing, and j is read from the
        last (D' : C') with the one inversion of its quotient."""
        p = 4 * 3 ** 74 * 5 ** 55 - 1
        params = setup(74, 55, seed=1, max_p=p)
        rng = random.Random(2 * 1 + 1)       # run_exchange's secret stream
        keys = {SIDE_A: keygen(params, SIDE_A, rng.randrange(3 ** 74)),
                SIDE_B: keygen(params, SIDE_B, rng.randrange(5 ** 55))}
        counts = {}
        for side, kp in keys.items():
            ctx = OpCounter()
            with params.field.counting(ctx):
                derive_shared(params, kp, keys[params.other(side)].public)
            counts[side] = {k: ctx.as_dict()[k] for k in ("M", "S", "I")}
        assert counts == {SIDE_A: {"M": 16981, "S": 2, "I": 1},
                          SIDE_B: {"M": 20472, "S": 2, "I": 1}}

    @pytest.mark.parametrize("seed", [2, 3])
    def test_inversions_at_247_bits(self, seed):
        """Inversion gate: at (74, 55) keygen inverts only to make its key
        affine, and derive_shared only to form j, whatever the secrets;
        neither may count more than 2 I."""
        p = 4 * 3 ** 74 * 5 ** 55 - 1
        params = setup(74, 55, seed=1, max_p=p)
        rng = random.Random(seed)
        keys, counts = {}, []
        for side, l, e in ((SIDE_A, 3, 74), (SIDE_B, 5, 55)):
            with params.field.counting(OpCounter()) as ctx:
                keys[side] = keygen(params, side, rng.randrange(l ** e))
            counts.append(ctx.i)
        for side, kp in keys.items():
            with params.field.counting(OpCounter()) as ctx:
                derive_shared(params, kp, keys[params.other(side)].public)
            counts.append(ctx.i)
        assert max(counts) <= 2

    def test_transcript_bytes_at_247_bits(self, monkeypatch):
        """Value gate: the SHA-256 of run_exchange(74, 55, seed=1)'s JSON
        without `counters` (bases, secrets, public keys, shared j) is
        frozen, so an arithmetic rewrite may change what an exchange
        costs but not what it computes."""
        p = 4 * 3 ** 74 * 5 ** 55 - 1
        monkeypatch.setattr(sidh, "DESK_PRIME_LIMIT", p)
        out = run_exchange(74, 55, seed=1)
        del out["counters"]
        digest = hashlib.sha256(
            json.dumps(out, sort_keys=True).encode()).hexdigest()
        assert digest == ("95113fed93f2c1a770335f69f5e744ff"
                          "98bc38d26211ae9f0a1d931a1f0fa566")

    def test_transcript_bytes_at_763_bits(self, monkeypatch):
        """Value and cost gate on the paper's 763-bit row, (238, 165): the
        SHA-256 of run_exchange(238, 165, seed=1)'s JSON without
        `counters`, and each party's base-field M, S, I from those
        counters."""
        p = 4 * 3 ** 238 * 5 ** 165 - 1
        monkeypatch.setattr(sidh, "DESK_PRIME_LIMIT", p)
        out = run_exchange(238, 165, seed=1)
        assert {side: {k: c["base"][k] for k in ("M", "S", "I")}
                for side, c in out.pop("counters").items()} == {
            "alice": {"M": 142971, "S": 4, "I": 2},
            "bob": {"M": 160043, "S": 4, "I": 2}}
        digest = hashlib.sha256(
            json.dumps(out, sort_keys=True).encode()).hexdigest()
        assert digest == ("d0b5b2a10f6cf013d2590b2ac76d7420"
                          "78444433d52c0955d6044f76bf1a4614")

    def test_chain_takes_no_character_at_247_bits(self, monkeypatch):
        """Codomain curves are checked for degeneracy without a Legendre
        symbol, so a 74-step chain never calls PrimeField.chi."""
        p = 4 * 3 ** 74 * 5 ** 55 - 1
        with monkeypatch.context() as patched:
            patched.setattr(sidh, "DESK_PRIME_LIMIT", p)
            params = setup(74, 55, seed=1)
        E, basis = params.curve, params.basis_a

        def no_chi(self, x):
            raise AssertionError("PrimeField.chi called")

        monkeypatch.setattr(PrimeField, "chi", no_chi)
        chain = IsogenyChain(E, E.add(basis.P, E.scalar_mul(5, basis.Q)),
                             [3] * 74)
        assert len(chain.steps) == 74

    def test_explicit_secrets(self):
        out = run_exchange(2, 1, seed=3, secret_a=5, secret_b=2)
        assert out["secret_a"] == 5 and out["secret_b"] == 2
        assert out["agree"] is True
