import dataclasses
import hashlib
import json
import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edwards_isogeny import (AffinePoint, DeskScaleOnly, EdwardsCurve,
                             EdwardsError, ExceptionalInput, ExceptionalPair,
                             InvalidParameter, IsogenyChain, NotOnCurve,
                             OddIsogeny, OddKernel, OpCounter, ProtocolError,
                             PrimeField, PublicKey, QuadExtField, SetupFailed,
                             count_cyclic_subgroups, derive_shared, keygen,
                             recover_y, run_exchange, setup, sidh)
from edwards_isogeny.isogeny import _carry
from edwards_isogeny.sidh import SIDE_A, SIDE_B

from conftest import (assert_cofactor_walk, assert_images_match_the_full_map,
                      desk_curves, ladder_offsets, pt)


def _refuse(x, curve):
    raise NotOnCurve(f"x = {x!r} refused")


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

    @pytest.mark.parametrize("seed", [1.5, "1", None, True],
                             ids=["float", "str", "none", "bool"])
    def test_non_int_seed_is_invalid(self, seed):
        """The seed must be an int too, checked before p is formed."""
        with pytest.raises(InvalidParameter, match="seed .* is not an int"):
            setup(1, 1, seed)

    def test_psi_is_an_automorphism(self, params59):
        """psi(x, y) = (1/x, i*y) maps every point of E_{1,-1} over
        F_{59^2} with x != 0 to the curve, psi^2 is negation, and psi
        respects the group law on sampled pairs."""
        E = params59.curve
        points = [P for P in E.points() if not P.x.is_zero()]
        for P in points:
            assert E.contains(psi(P))
            assert psi(psi(P)) == P.neg()
        rng = random.Random(0)
        for _ in range(200):
            P, R = rng.choice(points), rng.choice(points)
            try:
                S = E.add(P, R)
            except ExceptionalPair:
                continue
            if not S.x.is_zero():
                assert psi(S) == E.add(psi(P), psi(R))

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 2)])
    def test_frobenius_splits_each_basis(self, m, n):
        """P lies on E(F_p), so Frobenius fixes it, and negates
        Q = psi(P); hence Q != P and Q != -P, for seeds 0-9."""
        for seed in range(10):
            params = setup(m, n, seed=seed)
            for basis in (params.basis_a, params.basis_b):
                P, Q = basis.P, basis.Q
                assert Q == psi(P)
                assert frobenius(P) == P and frobenius(Q) == Q.neg()
                assert Q not in (P, P.neg())

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
        (3, 2, 11, [[("60e+0*i", "63+0*i"), ("15e+0*i", "0+63*i")],
                    [("428+0*i", "57b+0*i"), ("361+0*i", "0+57b*i")]]),
        (1, 1, 5, [[("1c+0*i", "23+0*i"), ("13+0*i", "0+23*i")],
                   [("6+0*i", "1e+0*i"), ("a+0*i", "0+1e*i")]]),
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

    @pytest.mark.parametrize("m,n,side,cofactor", [
        (1, 1, SIDE_A, 20),        # 20 = -1 mod 3: T = -R, T + R = O
        (2, 1, SIDE_B, 36),        # 36 = 1 mod 5: T = R
    ])
    def test_draws_of_order_l(self, m, n, side, cofactor, monkeypatch):
        """A draw of E_{1,-1}(F_p) that is itself of order l, where the
        cofactor 4*o^f is -1 or 1 mod l: T = -R is the y-recovery's
        T + R = O case, and T = R its x(T) = x(R) case.  P is the exact
        multiple, lifted to F_{p^2}, and Q = psi(P)."""
        params = setup(m, n, seed=3)
        E, basis, Fp = params.curve, params.basis(side), params.field.base
        R = basis.P                          # of order l, on E(F_p)
        draws = [AffinePoint(R.x.c0, R.y.c0)]

        def draw(curve, rng):
            assert (curve.field, curve.a, curve.d) == (Fp, 1, -1)
            return draws.pop(0)

        monkeypatch.setattr(sidh, "_random_point", draw)
        got = sidh._torsion_basis(E, basis.degree, basis.exponent,
                                  random.Random(0))
        assert draws == []
        assert got.P == E.scalar_mul(cofactor, R)
        assert got.P == (R.neg() if cofactor % basis.degree == 2 else R)
        assert got.Q == psi(got.P)

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

    @pytest.mark.parametrize("patches,message", [
        ({"recover_y": _refuse}, "random point sampling exhausted"),
        ({"_SAMPLING_BUDGET": 0}, r"no point of order 3\^1 found")],
        ids=["no-point-lifts", "no-draws"])
    def test_sampling_failures(self, monkeypatch, patches, message):
        """Each of `setup`'s two SetupFailed refusals: every x refused
        as a point, and no draw at all."""
        for name, patch in patches.items():
            monkeypatch.setattr(sidh, name, patch)
        with pytest.raises(SetupFailed, match=message):
            setup(1, 1)

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

    @pytest.mark.parametrize("params", [None, "params", lambda p: p.curve],
                             ids=["none", "str", "curve"])
    def test_non_params_is_protocol_error(self, params59, params):
        """keygen names a params that is not a ProtocolParams, before any
        arithmetic; it was an AttributeError."""
        params = params(params59) if callable(params) else params
        with pytest.raises(ProtocolError, match="params .* is not a Prot"):
            keygen(params, SIDE_A, 1)

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

    def test_no_y_map(self, params2699, monkeypatch):
        """keygen pushes its images on the x-line alone, y as x(P - F)
        for F = (0, 1) of order 4, and derive_shared pushes none: for
        every secret of both sides neither reaches `OddIsogeny.image` or
        its `_y_map`.  The SHA-256 of all those keys is frozen from the
        y-map route that made them before."""
        def refuse(*args):
            raise AssertionError("y-map called")

        monkeypatch.setattr(OddIsogeny, "image", refuse)
        monkeypatch.setattr(OddIsogeny, "_y_map", property(refuse))
        sides = {SIDE_A: 27, SIDE_B: 25}
        keys = {side: [keygen(params2699, side, k) for k in range(n)]
                for side, n in sides.items()}
        for side, kps in keys.items():
            other = keys[params2699.other(side)][1].public
            for kp in kps:
                derive_shared(params2699, kp, other)
        digest = hashlib.sha256(json.dumps(
            [kp.public.to_json() for side in sides for kp in keys[side]],
            sort_keys=True).encode()).hexdigest()
        assert digest == ("7ae2486a80577a6b4965d7de9217770e"
                          "fac6124e9c31f24a5164f02a9b278ef0")

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

    @pytest.mark.parametrize("seed", range(5))
    def test_every_pair_at_2699(self, seed):
        """All 27 * 25 secret pairs of setup(3, 2) agree on j."""
        params = setup(3, 2, seed=seed)
        keys_a = [keygen(params, SIDE_A, k) for k in range(27)]
        keys_b = [keygen(params, SIDE_B, k) for k in range(25)]
        for kp_a in keys_a:
            for kp_b in keys_b:
                assert (derive_shared(params, kp_a, kp_b.public)
                        == derive_shared(params, kp_b, kp_a.public))

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

    def test_key_from_an_equal_field_counts_on_the_params(self):
        """A public key parsed in a second, equal F_{p^2} is coerced into
        the params' field: the derive tallies on `params.field.counter`
        exactly as with the params' own key (378M + 2S + 1I at (3, 2)),
        nothing on the key's field, and gives the same j."""
        params = setup(3, 2, seed=1)
        kp_a, kp_b = keygen(params, SIDE_A, 5), keygen(params, SIDE_B, 7)
        other = QuadExtField(PrimeField(params.p))
        doc = kp_b.public.to_json()
        foreign = PublicKey(other.parse(doc["d_prime"]),
                            *(AffinePoint.from_json(doc[k], other)
                              for k in ("image_p", "image_q")))
        counts, js = [], []
        for key in (kp_b.public, foreign):
            with params.field.counting(OpCounter()) as ctx, \
                    other.counting(OpCounter()) as theirs:
                js.append(derive_shared(params, kp_a, key))
            counts.append(ctx.as_dict())
            assert theirs.snapshot() == (0,) * 8
        assert counts[0] == counts[1]
        assert (counts[0]["M"], counts[0]["S"], counts[0]["I"]) == (378, 2, 1)
        assert js[0] == js[1] and js[1].field is params.field

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

    @pytest.mark.parametrize("key", [
        None, "key", lambda kp: kp.public.to_json(), lambda kp: kp],
        ids=["none", "str", "json-document", "keypair"])
    def test_non_public_key_is_protocol_error(self, params59, key):
        kp_a = keygen(params59, SIDE_A, 1)
        kp_b = keygen(params59, SIDE_B, 1)
        with pytest.raises(ProtocolError, match="is not a PublicKey"):
            derive_shared(params59, kp_a, key(kp_b) if callable(key) else key)

    @pytest.mark.parametrize("slot,name", [(0, "params"), (1, "keypair")])
    @pytest.mark.parametrize("value", [None, "x", lambda kp: kp.public],
                             ids=["none", "str", "public-key"])
    def test_non_params_or_keypair_is_protocol_error(self, params59, slot,
                                                     name, value):
        """derive_shared names a params or keypair of the wrong type, before
        any arithmetic; each was an AttributeError."""
        kp_a = keygen(params59, SIDE_A, 1)
        kp_b = keygen(params59, SIDE_B, 1)
        args = [params59, kp_a, kp_b.public]
        args[slot] = value(kp_a) if callable(value) else value
        with params59.field.counting(OpCounter()) as ctx:
            with pytest.raises(ProtocolError, match=f"{name} .* is not a"):
                derive_shared(*args)
        assert ctx.as_dict() == {"M": 0, "S": 0, "I": 0, "A": 0}

    @pytest.mark.parametrize("field,value", [
        ("codomain_d", None), ("image_p", None), ("image_p", (1, 2))],
        ids=["d-none", "image-none", "image-int-pair"])
    def test_mistyped_field_is_protocol_error(self, params59, monkeypatch,
                                              field, value):
        """A `PublicKey` whose d' is not a field element, or whose image is
        not a pair of them, is refused before any chain work."""
        kp_a = keygen(params59, SIDE_A, 1)
        kp_b = keygen(params59, SIDE_B, 1)
        broken = dataclasses.replace(kp_b.public, **{field: value})
        monkeypatch.setattr(sidh, "IsogenyChain", None)
        with pytest.raises(ProtocolError, match="malformed public key"):
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

    @pytest.mark.parametrize("side", [SIDE_A, SIDE_B])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_rejects_singular_difference(self, exchange, side, sign):
        """An image P' with d'*x(P')*x(Q')*y(P')*y(Q') = sign, so that
        P' - Q' is a singular point at infinity (of order 2 for sign 1,
        where y's denominator is zero, of order 4 for -1, where x's is):
        x(P' - Q') refuses it, so derive_shared raises ProtocolError
        before the ladder."""
        params, kp = exchange
        pub = kp[params.other(side)].public
        F, Q = params.field, pub.image_q
        E = EdwardsCurve(F, F.one, pub.codomain_d)
        c = sign * (E.d * Q.x * Q.y).inverse()        # x(P') * y(P')
        s = F.sqrt(1 + E.d * c.square() + 2 * c)      # x(P') + y(P')
        r = F.sqrt(s.square() - 4 * c)                # x(P') - y(P')
        P = AffinePoint((s + r) / 2, (s - r) / 2)
        assert E.contains(P) and E.d * P.x * Q.x * P.y * Q.y == sign
        with pytest.raises(ExceptionalPair):
            sidh._x_difference(E, P, Q)
        with pytest.raises(ProtocolError, match="P - Q lies at infinity"):
            derive_shared(params, kp[side], PublicKey(pub.codomain_d, P, Q))


class TestXDifference:
    """`_x_difference`, x(P - Q) as the law's x fraction."""

    @settings(max_examples=80)
    @given(curve=desk_curves(), data=st.data())
    def test_matches_the_law(self, curve, data):
        """(X : Z) is x(P + (-Q)) by `add`, projectively, and
        ExceptionalPair comes exactly where `add` raises it."""
        pts = curve.points()
        P, Q = (data.draw(st.sampled_from(pts)) for _ in range(2))
        try:
            want = curve.add(P, Q.neg()).x
        except ExceptionalPair:
            with pytest.raises(ExceptionalPair):
                sidh._x_difference(curve, P, Q)
            return
        X, Z = sidh._x_difference(curve, P, Q)
        assert X == want * Z

    def test_cost(self, e23):
        """4M at a = 1, and no inversion."""
        P, Q = pt(e23, 3, 6), pt(e23, 2, 2)
        with e23.field.counting(OpCounter()) as ctx:
            sidh._x_difference(e23, P, Q)
        assert {k: ctx.as_dict()[k] for k in "MSI"} == {"M": 4, "S": 0,
                                                        "I": 0}


def _setup_counts(m, n):
    """The base-field M, S, I of setup(m, n, seed=1)'s fresh field."""
    p = 4 * 3 ** m * 5 ** n - 1
    counts = setup(m, n, seed=1, max_p=p).field.counter.as_dict()
    return {k: counts[k] for k in ("M", "S", "I")}


def psi(T):
    """psi(x, y) = (1/x, i*y), the automorphism of E_{1,-1} of order 4."""
    x, y = T
    return AffinePoint(x.inverse(), y * y.field(0, 1))


def frobenius(T):
    """T with each coordinate c0 + c1*i conjugated."""
    return AffinePoint(*(v.field(v.c0, -v.c1.value) for v in T))


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
            "alice": {"base": {"M": 858, "S": 4, "I": 2, "A": 2035},
                      "ext": {"M": 210, "S": 113, "I": 2, "A": 326}},
            "bob": {"base": {"M": 1049, "S": 4, "I": 2, "A": 2238},
                    "ext": {"M": 267, "S": 123, "I": 2, "A": 270}}}),
        (1, 1, 2024, (2, 3), {
            "alice": {"base": {"M": 354, "S": 4, "I": 2, "A": 779},
                      "ext": {"M": 90, "S": 41, "I": 2, "A": 106}},
            "bob": {"base": {"M": 480, "S": 4, "I": 2, "A": 985},
                    "ext": {"M": 124, "S": 53, "I": 2, "A": 106}}}),
    ])
    def test_exact_counts(self, m, n, seed, secrets, counters):
        """Cost gate: the exact tallies of fixed exchanges are frozen, so
        any change to the arithmetic an exchange performs fails here."""
        out = run_exchange(m, n, seed=seed)
        assert (out["secret_a"], out["secret_b"]) == secrets
        assert out["agree"] is True
        assert out["counters"] == counters

    @pytest.mark.parametrize("side", [SIDE_A, SIDE_B])
    def test_keygen_counts_do_not_depend_on_call_order(self, side):
        """Two keygens on one fresh ProtocolParams count the same, A
        included: setup makes the curve's `xline`, so the first keygen
        pays nothing that the second skips."""
        params = setup(3, 2, seed=1)
        counts = []
        for _ in range(2):
            with params.field.counting(OpCounter()) as ctx:
                keygen(params, side, 7)
            counts.append((ctx.as_dict(), ctx.ext_as_dict()))
        assert counts[0] == counts[1]

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
        assert counts == {SIDE_A: {"M": 19548, "S": 2, "I": 1},
                          SIDE_B: {"M": 24128, "S": 2, "I": 1}}

    def test_setup_counts_at_247_bits(self):
        """Cost gate on setup(74, 55, seed=1): the base-field M, S, I its
        fresh field has counted when it returns, the draws lifted and
        walked on the F_p x-line, where a square is an S, and y recovered
        for one point a side only."""
        assert _setup_counts(74, 55) == {"M": 4359, "S": 2430, "I": 14}

    def test_setup_counts_at_763_bits(self):
        """Cost gate on setup(238, 165, seed=1), as at 247 bits."""
        assert _setup_counts(238, 165) == {"M": 8885, "S": 5001, "I": 7}

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
        assert counts == {SIDE_A: {"M": 16961, "S": 2, "I": 1},
                          SIDE_B: {"M": 20452, "S": 2, "I": 1}}

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
        assert digest == ("ce5fe4cc74fde7ef8105c08c7e382661"
                          "4cdd42d19bf7cb92e22d41caaea0d26e")

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
            "alice": {"M": 135573, "S": 4, "I": 2},
            "bob": {"M": 152928, "S": 4, "I": 2}}
        digest = hashlib.sha256(
            json.dumps(out, sort_keys=True).encode()).hexdigest()
        assert digest == ("5748c6ad550382f638c61fa93c1e4539"
                          "50cc93eac556714b556648df519e5d68")

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
