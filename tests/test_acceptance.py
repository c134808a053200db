"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with -s to see them live) and enforcing its time budget.

All comparisons are exact; there are no numeric tolerances anywhere.
"""

import inspect
import json
import time
from contextlib import contextmanager

import pytest

from edwards_isogeny import (AffinePoint, DeskScaleOnly, EdwardsCurve,
                             IsogenyChain, OddIsogeny, OddKernel, OpCounter,
                             PrimeField, XZPoint, congruence_gate,
                             count_cyclic_subgroups, derive_shared,
                             eval_3_isog, eval_5_isog, get_3_isog, get_5_isog,
                             is_supersingular, keygen, run_5_isog, setup,
                             supersingular_d_scan, verify_reference_table)
from edwards_isogeny.cli import main as cli_main
from edwards_isogeny.curve import COMPLETE, QUADRATIC
from edwards_isogeny.sidh import SIDE_A, SIDE_B
from edwards_isogeny.supersingular import COMPLETE_4, QUADRATIC_8

from conftest import translate_image


@contextmanager
def criterion(number, description, budget=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    dt = time.monotonic() - t0
    if budget is not None and dt >= budget:
        print(f"[criterion {number}] FAIL - {description}: "
              f"{dt:.2f}s exceeds the {budget:.0f}s budget")
        raise AssertionError(f"criterion {number} over time budget")
    print(f"[criterion {number}] PASS - {description} ({dt:.2f}s)")


def _pt(curve, x, y):
    return AffinePoint(curve.field(x), curve.field(y))


def _signed(P):
    return (P.x.signed(), P.y.signed())


def test_criterion_1_golden_3_isogeny():
    with criterion(1, "worked 3-isogeny at p=23 reproduced exactly", budget=1.0):
        field = PrimeField(23)
        curve = EdwardsCurve(field, field.one, field(-1))
        assert curve.order() == 24
        for xy, order in [((3, 6), 24), ((2, 2), 8), ((9, 10), 12),
                          ((10, 9), 6), ((-10, 9), 3)]:
            assert curve.point_order(_pt(curve, *xy)) == order

        phi = OddIsogeny(OddKernel.from_generator(_pt(curve, -10, 9), 3, curve))
        kernel = {_signed(P) for P in phi.kernel.full_points()}
        assert kernel == {(1, 0), (-10, 9), (-10, -9)}
        assert phi.codomain_d == field(-2)

        mappings = [
            ((3, 6), (-7, 7)), ((3, -6), (-7, -7)),
            ((6, 3), (7, -7)), ((2, 2), (7, 7)),
            ((9, 10), (0, -1)), ((9, -10), (0, 1)),
            ((10, 9), (-1, 0)),
            ((-10, 9), (1, 0)), ((-10, -9), (1, 0)),
            ((1, 0), (1, 0)),
        ]
        for src, dst in mappings:
            assert _signed(phi(_pt(curve, *src))) == dst


def test_criterion_2_golden_5_isogeny():
    with criterion(2, "worked 5-isogeny at p=19 reproduced exactly", budget=1.0):
        field = PrimeField(19)
        curve = EdwardsCurve(field, field.one, field(-1))
        assert curve.order() == 20

        phi = OddIsogeny(OddKernel.from_generator(_pt(curve, 6, 4), 5, curve))
        kernel = {_signed(P) for P in phi.kernel.full_points()}
        assert kernel == {(1, 0), (6, 4), (6, -4), (-8, -2), (-8, 2)}
        assert phi.kernel.A.square() == 5

        for src, dst in [((2, 8), (0, 1)), ((4, 6), (0, -1)),
                         ((8, 2), (-1, 0)), ((6, 4), (1, 0)),
                         ((6, -4), (1, 0)), ((1, 0), (1, 0))]:
            assert _signed(phi(_pt(curve, *src))) == dst

        # The codomain parameter is the value under which every image
        # satisfies the curve equation: +2, not the printed -2.
        assert phi.codomain_d == 2
        for P in curve.points():
            assert phi.codomain.contains(phi(P))
        printed = field(-2)
        assert phi.codomain_d != printed
        published_points = [(4, 5), (7, 9), (5, 4), (9, 7)]
        wrong = EdwardsCurve(field, field.one, printed)
        assert not all(wrong.contains(_pt(wrong, x, y))
                       for x, y in published_points)
        print("[criterion 2] note: published d' = -2 fails image membership; "
              "the kernel formula and all published image points give d' = +2")


def _complete_supersingular_curves(p):
    field = PrimeField(p)
    return [EdwardsCurve(field, field.one, d)
            for d in supersingular_d_scan(field, COMPLETE)]


def _odd_kernels(curve, l):
    """One kernel per order-l subgroup."""
    seen = set()
    kernels = []
    for P in curve.points():
        if P.is_identity() or not curve.scalar_mul(l, P).is_identity():
            continue
        ker = OddKernel.from_generator(P, l, curve)
        key = frozenset(_signed(Q) for Q in ker.full_points())
        if key not in seen:
            seen.add(key)
            kernels.append(ker)
    return kernels


def test_criterion_3_oracle_equivalence():
    with criterion(3, "rational = translate oracle = x-only on every point "
                      "of every complete supersingular curve, "
                      "p in {11,19,23,59}",
                   budget=30.0):
        checked = 0
        for p in (11, 19, 23, 59):
            for curve in _complete_supersingular_curves(p):
                pts = curve.points()
                for l in (3, 5):
                    if (p + 1) % l != 0:
                        continue
                    for ker in _odd_kernels(curve, l):
                        phi = OddIsogeny(ker)
                        k_xz = [XZPoint.from_affine(Q) for Q in ker.points]
                        for P in pts:
                            img_r = phi(P)
                            assert img_r == translate_image(phi, P)
                            P_xz = XZPoint.from_affine(P)
                            if l == 3:
                                img_x = eval_3_isog(P_xz, k_xz[0])
                            else:
                                img_x = eval_5_isog(P_xz, k_xz[0], k_xz[1],
                                                    curve.d)
                            assert not img_x.is_exceptional()
                            assert img_x.affine_x() == img_r.x
                            checked += 1
        assert checked > 0
        print(f"[criterion 3] note: {checked} point evaluations, 0 mismatches")


def test_criterion_4_operation_counts():
    with criterion(4, "x-only costs exactly 6M+5S (degree 3) and 21M+12S "
                      "(degree 5)", budget=1.0):
        f23 = PrimeField(23)
        K3 = XZPoint.from_x(f23(-10))
        P3 = XZPoint.from_x(f23(3))
        ctx = OpCounter()
        with f23.counting(ctx):
            get_3_isog(K3)
        assert (ctx.m, ctx.s) == (2, 3)
        with f23.counting(ctx):
            eval_3_isog(P3, K3)
        total3 = (ctx.m, ctx.s)
        assert total3 == (6, 5)

        f19 = PrimeField(19)
        K1, K2 = XZPoint.from_x(f19(6)), XZPoint.from_x(f19(-8))
        P5 = XZPoint.from_x(f19(2))
        ctx5 = OpCounter()
        with f19.counting(ctx5):
            eval_5_isog(P5, K1, K2, f19(-1))
        assert (ctx5.m, ctx5.s) == (19, 6)
        ctx5c = OpCounter()
        shared = (K1.X.square() * K2.X.square(), K1.Z.square() * K2.Z.square())
        with f19.counting(ctx5c):
            get_5_isog(K1, K2, f19(-1), shared=shared)
        assert (ctx5c.m, ctx5c.s) == (2, 6)
        ctx5t = OpCounter()
        with f19.counting(ctx5t):
            run_5_isog(P5, K1, K2, f19(-1))
        total5 = (ctx5t.m, ctx5t.s)
        assert total5 == (21, 12)

        # the lower headline figures are not met by the printed algorithms
        assert total3 != (6, 4)
        assert total5 != (12, 5)
        print("[criterion 4] note: headline figures 6M+4S / 12M+5S are not "
              "achieved by these formulas; measured 6M+5S / 21M+12S")


def test_criterion_5_structural_properties():
    with criterion(5, "homomorphism, l-preimage compression, class "
                      "preservation, kernel annihilation, d-independence "
                      "(exhaustive, p <= 59)", budget=60.0):
        for p in (11, 19, 23, 59):
            for curve in _complete_supersingular_curves(p):
                pts = curve.points()
                for l in (3, 5):
                    if (p + 1) % l != 0:
                        continue
                    for ker in _odd_kernels(curve, l):
                        phi = OddIsogeny(ker)
                        images = {id(P): phi(P) for P in pts}
                        by_point = {(P.x.value, P.y.value): images[id(P)]
                                    for P in pts}
                        # homomorphism on every pair
                        for P in pts:
                            for Q in pts:
                                s = curve.add(P, Q)
                                assert (by_point[(s.x.value, s.y.value)]
                                        == phi.codomain.add(images[id(P)],
                                                            images[id(Q)]))
                        # compression: every image has exactly l preimages
                        counts = {}
                        for P in pts:
                            key = (images[id(P)].x.value, images[id(P)].y.value)
                            counts[key] = counts.get(key, 0) + 1
                        assert set(counts.values()) == {l}
                        # kernel annihilation
                        for Q in ker.full_points():
                            assert phi(Q).is_identity()
                        # class preservation
                        assert phi.codomain.class_tag == COMPLETE

        # quadratic class is preserved as well (p = 23, d = 2)
        f23 = PrimeField(23)
        quad = EdwardsCurve(f23, f23.one, f23(2))
        gen = _pt(quad, -5, 10)
        phi_q = OddIsogeny(OddKernel.from_generator(gen, 3, quad))
        assert quad.class_tag == QUADRATIC
        assert phi_q.codomain.class_tag == QUADRATIC

        # the x-only 3-isogeny cannot read d: no such parameter exists
        assert "d" not in inspect.signature(eval_3_isog).parameters
        assert "d" not in inspect.signature(get_3_isog).parameters


def test_criterion_6_existence_statements():
    with criterion(6, "no supersingular curves when p = 1 mod 4 (p <= 200, "
                      "exhaustive); gates + torsion at p in {59,179,239}",
                   budget=60.0):
        from edwards_isogeny.field import is_probable_prime
        for p in range(5, 201, 4):          # p = 1 (mod 4)
            if not is_probable_prime(p):
                continue
            field = PrimeField(p)
            assert supersingular_d_scan(field) == [], f"counterexample at {p}"

        for p in (59, 179, 239):
            assert congruence_gate(p, COMPLETE_4)
            field = PrimeField(p)
            curve = EdwardsCurve(field, field.one, field(-1))
            assert curve.class_tag == COMPLETE
            assert is_supersingular(curve)
            for l in (3, 5):
                cof = (p + 1) // l
                found = False
                for P in curve.points():
                    T = curve.scalar_mul(cof, P)
                    if not T.is_identity():
                        assert curve.scalar_mul(l, T).is_identity()
                        found = True
                        break
                assert found
        assert congruence_gate(239, QUADRATIC_8)


def test_criterion_7_reference_table():
    with criterion(7, "published 768-bit scale rows reconstruct: bit lengths "
                      "763/778/756, primality proven by the N+1 test",
                   budget=10.0):
        reports = verify_reference_table()
        assert [r["bits_computed"] for r in reports] == [763, 778, 756]
        assert all(r["bits_match"] for r in reports)
        assert all(r["is_prime"] for r in reports)
        for i, r in enumerate(reports, start=1):
            if r["hex_match"]:
                print(f"[criterion 7] note: row {i} hex matches exactly")
            else:
                print(f"[criterion 7] note: row {i} hex mismatch - {r['hex_note']}")


def test_criterion_8_sidh_demo():
    with criterion(8, "SIDH agreement: exhaustive at p=59, 100 random pairs "
                      "at p=2699, subgroup counts 4 and 6", budget=60.0):
        params = setup(1, 1, seed=2024)
        for ka in range(3):
            kp_a = keygen(params, SIDE_A, ka)
            assert all(s.degree == 3 for s in kp_a.chain.steps)
            for kb in range(5):
                kp_b = keygen(params, SIDE_B, kb)
                assert all(s.degree == 5 for s in kp_b.chain.steps)
                j_a = derive_shared(params, kp_a, kp_b.public)
                j_b = derive_shared(params, kp_b, kp_a.public)
                assert j_a == j_b

        assert count_cyclic_subgroups(params.curve, 3) == 4
        assert count_cyclic_subgroups(params.curve, 5) == 6

        import random
        rng = random.Random(2024)
        big = setup(3, 2, seed=2024)
        agreements = 0
        for _ in range(100):
            ka, kb = rng.randrange(27), rng.randrange(25)
            kp_a = keygen(big, SIDE_A, ka)
            kp_b = keygen(big, SIDE_B, kb)
            j_a = derive_shared(big, kp_a, kp_b.public)
            j_b = derive_shared(big, kp_b, kp_a.public)
            agreements += (j_a == j_b)
        assert agreements == 100
        print(f"[criterion 8] note: 15/15 exhaustive and {agreements}/100 "
              "random agreements")


def test_criterion_9_full_scale_excluded(capsys):
    with criterion(9, "no full-scale exchange; sizing identities printed by "
                      "search-primes", budget=10.0):
        # the demo refuses production-scale moduli
        with pytest.raises(DeskScaleOnly):
            setup(238, 165, seed=0)
        # the search surface reports the 128-bit-quantum sizing: 768-bit p,
        # 6 * 768 = 4608-bit keys
        code = cli_main(["search-primes", "--bits", "768", "--window", "0",
                         "--tolerance", "0", "--limit", "0"])
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["target_bits"] == 768
        assert summary["target_key_bits"] == 4608
    print("[criterion 9] note: production-scale key exchange intentionally "
          "not reproduced; coverage rests on criteria 6 and 7 plus sizing")
