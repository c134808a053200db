import hashlib
import json

import pytest

from edwards_isogeny import (COMPLETE, EdwardsCurve, InvalidParameter,
                             PrimeField, SearchSpec,
                             SidhPrime, congruence_gate, estimate_bit_length,
                             is_supersingular, search_sidh_primes,
                             sidh_key_bits, supersingular_d_scan,
                             supersingular_excluded, verify_reference_table)
from edwards_isogeny.supersingular import (COMPLETE_4, MAX_TARGET_BITS,
                                           MAX_TOLERANCE, MAX_WINDOW,
                                           QUADRATIC_8, REFERENCE_ROWS,
                                           verify_reference_row)

from oracles import naive_order


class TestIsSupersingular:
    def test_worked_curves(self, e23, e19):
        assert is_supersingular(e23)
        assert is_supersingular(e19)

    def test_ordinary_curve(self, f23):
        ordinary = [d for d in range(2, 23)
                    if naive_order(23, 1, d) != 24]
        assert ordinary
        curve = EdwardsCurve(f23, f23.one, f23(ordinary[0]))
        assert not is_supersingular(curve)

    def test_scan_matches_oracle(self, f23):
        found = {d.value for d in supersingular_d_scan(f23)}
        want = {d for d in range(2, 23) if naive_order(23, 1, d) == 24}
        assert found == want
        assert 22 in found            # d = -1

    def test_extension_order(self):
        from edwards_isogeny import QuadExtField
        field = QuadExtField(PrimeField(59))
        curve = EdwardsCurve(field, field.one, field(-1))
        assert is_supersingular(curve)   # order (p+1)^2 = 3600


class TestCongruences:
    def test_59(self):
        assert congruence_gate(59, COMPLETE_4)       # 59 = 4*3*5 - 1
        assert not congruence_gate(59, QUADRATIC_8)

    def test_239(self):
        assert congruence_gate(239, COMPLETE_4)      # 240 = 2 * 120
        assert congruence_gate(239, QUADRATIC_8)

    def test_exclusion_predicate(self):
        assert supersingular_excluded(13)
        assert not supersingular_excluded(59)

    def test_excluded_prime_has_no_curves(self):
        """p = 13 = 1 (mod 4): the full d-scan finds nothing."""
        assert supersingular_d_scan(PrimeField(13)) == []

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            congruence_gate(59, "bogus")

    def test_component_congruences(self):
        """Any gate pass implies p = -1 mod 4, mod 3 and mod 5
        separately."""
        for p in (59, 179, 239, 359):
            if congruence_gate(p, COMPLETE_4):
                assert p % 4 == 3 and p % 3 == 2 and p % 5 == 4


class TestTorsionAvailability:
    @pytest.mark.parametrize("p", [59, 179, 239])
    def test_three_and_five_torsion(self, p):
        """The complete supersingular curve at d = -1 has points of
        order 3 and 5, found by cofactor multiplication."""
        field = PrimeField(p)
        curve = EdwardsCurve(field, field.one, field(-1))
        assert curve.class_tag == COMPLETE
        assert is_supersingular(curve)
        for l in (3, 5):
            cof = (p + 1) // l
            hit = False
            for P in curve.points():
                T = curve.scalar_mul(cof, P)
                if not T.is_identity():
                    assert curve.scalar_mul(l, T).is_identity()
                    hit = True
                    break
            assert hit, f"no order-{l} point on d=-1 over F_{p}"


class TestSearch:
    def test_smallest_instance(self):
        res = search_sidh_primes(SearchSpec(target_bits=6, bits_tolerance=0))
        assert any(r.p == 59 and (r.m, r.n) == (1, 1) for r in res)
        assert all(r.bit_length == 6 for r in res)

    def test_finds_179(self):
        res = search_sidh_primes(SearchSpec(target_bits=8, bits_tolerance=0))
        assert any(r.p == 179 and (r.m, r.n) == (2, 1) for r in res)

    def test_all_results_pass_gate(self):
        for r in search_sidh_primes(SearchSpec(target_bits=16, bits_tolerance=4)):
            assert congruence_gate(r.p, COMPLETE_4)
            assert r.p == 4 * 3 ** r.m * 5 ** r.n - 1
            assert r.p % 4 == 3 and r.p % 3 == 2 and r.p % 5 == 4

    def test_sorted_by_distance_then_grid(self):
        res = search_sidh_primes(SearchSpec(target_bits=20, bits_tolerance=6))
        keys = [(abs(r.bit_length - 20), r.n, r.m) for r in res]
        assert keys == sorted(keys)

    def test_explicit_ranges_reach_published_row(self):
        # The derived grid around a 763-bit target, narrowed by the window.
        spec = SearchSpec(target_bits=763, bits_tolerance=0, window=4)
        res = search_sidh_primes(spec)
        assert len(res) == 1
        assert res[0].bit_length == 763
        assert (res[0].m, res[0].n) == (238, 165)

    def test_quadratic_variant(self):
        res = search_sidh_primes(
            SearchSpec(target_bits=10, bits_tolerance=2, variant=QUADRATIC_8))
        for r in res:
            assert r.p == 8 * 3 ** r.m * 5 ** r.n - 1
            assert congruence_gate(r.p, QUADRATIC_8)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            SearchSpec(100, variant="bogus")
        spec = SearchSpec(100)
        spec.variant = "bogus"           # set after the spec's own check
        with pytest.raises(ValueError, match="unknown variant"):
            search_sidh_primes(spec)

    def test_grid_bounds(self):
        """The largest grid is accepted (building it runs nothing); one
        step beyond any bound is refused."""
        SearchSpec(MAX_TARGET_BITS, window=MAX_WINDOW,
                   bits_tolerance=MAX_TOLERANCE)
        for bits in range(762, 775):
            SearchSpec(bits, variant=QUADRATIC_8, window=8, bits_tolerance=16)
        for kw in ({"target_bits": MAX_TARGET_BITS + 1},
                   {"target_bits": 100, "window": MAX_WINDOW + 1},
                   {"target_bits": 100, "bits_tolerance": MAX_TOLERANCE + 1},
                   {"target_bits": 10 ** 100}):
            with pytest.raises(ValueError):
                SearchSpec(**kw)

    @pytest.mark.parametrize("kw", [
        {"target_bits": 40.5}, {"target_bits": "40"},
        {"target_bits": 40, "window": 8.0},
        {"target_bits": 40, "bits_tolerance": None}],
        ids=["bits-float", "bits-str", "window-float", "tolerance-none"])
    def test_non_int_bounds_are_invalid(self, kw):
        """The bit target, window and tolerance must be ints; 40.5 bits
        used to pass the range check."""
        with pytest.raises(InvalidParameter, match="is not an int"):
            SearchSpec(**kw)

    def test_json_row(self):
        row = SidhPrime(59, 1, 1, 6).to_json()
        assert row == {"m": 1, "n": 1, "p_hex": "3b", "bits": 6,
                       "sidh_key_bits": 36, "quantum_security_bits": 1}


class TestBitEstimate:
    def test_within_one_of_exact(self):
        for m, n in [(1, 1), (5, 3), (10, 7), (238, 165), (243, 168), (247, 156)]:
            exact = (4 * 3 ** m * 5 ** n - 1).bit_length()
            assert abs(estimate_bit_length(m, n) - exact) <= 1

    def test_key_sizing(self):
        assert sidh_key_bits(768) == 4608

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            estimate_bit_length(1, 1, "bogus")


@pytest.fixture(scope="module")
def reports():
    return verify_reference_table()


class TestReferenceTable:
    def test_bit_lengths(self, reports):
        assert [r["bits_computed"] for r in reports] == [763, 778, 756]
        assert all(r["bits_match"] for r in reports)

    def test_primality(self, reports):
        assert all(r["is_prime"] for r in reports)

    def test_hex_rows(self, reports):
        """Rows 1 and 3 reproduce the published hex exactly; row 2's
        published string carries one inserted digit."""
        assert reports[0]["hex_match"]
        assert reports[2]["hex_match"]
        assert not reports[1]["hex_match"]
        assert "hex_note" in reports[1]
        assert "196" in reports[1]["hex_note"]   # published length

    def test_hex_notes(self):
        """The note on a published hex that differs: at a digit when the
        lengths agree, or by length with the shared prefix when one is the
        start of the other."""
        m, n, hex_p, bits = REFERENCE_ROWS[0]
        flipped = hex_p[:5] + ("0" if hex_p[5] != "0" else "1") + hex_p[6:]
        notes = [verify_reference_row(m, n, h, bits)["hex_note"]
                 for h in (flipped, hex_p + "0")]
        assert notes[0].startswith("same length; first difference at hex "
                                   "digit 5: computed ..." + hex_p[5:13])
        assert notes[1] == (f"published hex has {len(hex_p) + 1} digits, "
                            f"reconstruction {len(hex_p)}; shared prefix of "
                            f"{len(hex_p)} digits")


class TestFrozenResults:
    """What the 64-round Miller-Rabin test gave before primes with a
    smooth p + 1 were proven by the N+1 test: the searches of the four
    targets that `prime-search` draws for seed 1, and the reference
    table.  A primality proof must not change any of it."""

    SEARCHES = {
        (767, COMPLETE_4): [(238, 165, 763), (243, 168, 778)],
        (771, COMPLETE_4): [(243, 168, 778), (238, 165, 763)],
        (766, QUADRATIC_8): [],
        (765, QUADRATIC_8): [],
    }
    # sha256 of json.dumps(verify_reference_table(), sort_keys=True)
    TABLE_DIGEST = ("528c0b40fe35607681b35c7ceef49901"
                    "016ce40648c70fce1160007929ab8446")

    def test_searches(self):
        for (bits, variant), rows in self.SEARCHES.items():
            cof = 4 if variant == COMPLETE_4 else 8
            want = [SidhPrime(cof * 3 ** m * 5 ** n - 1, m, n, b, variant)
                    for m, n, b in rows]
            assert search_sidh_primes(SearchSpec(bits, variant=variant)) == want

    def test_reference_table(self):
        rows = verify_reference_table()
        assert [r["is_prime"] for r in rows] == [True, True, True]
        assert [r["hex_match"] for r in rows] == [True, False, True]
        text = json.dumps(rows, sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() == self.TABLE_DIGEST
