import contextlib
import io
import json
import math
import re
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edwards_isogeny import (EdwardsCurve, EdwardsError, OddIsogeny,
                             OddKernel, PrimeField, QuadExtField, SearchSpec,
                             count_cyclic_subgroups, field, keygen, setup)
from edwards_isogeny.cli import main
from edwards_isogeny.field import MAX_MODULUS_BITS
from edwards_isogeny.xonly import odd_image

from oracles import montgomery_point_order


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestClassify:
    def test_worked_curve(self, capsys):
        code, doc = run_json(capsys, "classify", "--p", "23", "--a", "1", "--d", "-1")
        assert code == 0
        assert doc["status"] == "ok"
        assert doc["class"] == "complete"
        assert set(doc["counters"]) == {"M", "S", "I", "A"}

    def test_hex_modulus(self, capsys):
        code, doc = run_json(capsys, "classify", "--p", "0x17", "--d", "2")
        assert code == 0
        assert doc["class"] == "quadratic"


class TestJ:
    def test_worked_value(self, capsys):
        code, doc = run_json(capsys, "j", "--p", "23", "--d", "-1")
        assert code == 0
        assert doc["j"] == 3

    def test_wide_field_prints_hex(self, capsys):
        """Beyond 64 bits a value is printed as its hex `to_str`, not as
        a signed int: p = 2^89 - 1."""
        code, doc = run_json(capsys, "j", "--p", str(2 ** 89 - 1), "--d", "3")
        assert code == 0
        assert doc["j"] == "15555555555555555560c6a"
        assert doc["counters"] == {"M": 6, "S": 5, "I": 1, "A": 3}


class TestPoints:
    def test_order_24(self, capsys):
        code, doc = run_json(capsys, "points", "--p", "23", "--d", "-1")
        assert code == 0
        assert doc["order"] == 24
        assert doc["affine_count"] == 24
        assert [3, 6] in doc["points"]
        assert [-10, 9] in doc["points"]

    def test_above_desk_scale(self, capsys):
        code, doc = run_json(capsys, "points", "--p", "1000003", "--d", "2")
        assert code == 1
        assert doc["code"] == "DeskScaleOnly"


class TestOrder:
    def test_order_8(self, capsys):
        code, doc = run_json(capsys, "order", "--p", "23", "--d", "-1",
                             "--point", "2,2")
        assert code == 0
        assert doc["order"] == 8

    def test_point_off_curve(self, capsys):
        code, doc = run_json(capsys, "order", "--p", "23", "--d", "-1",
                             "--point", "5,5")
        assert code == 1
        assert doc["code"] == "NotOnCurve"

    def test_quadratic_curve_point(self, capsys):
        """A point whose group-order multiple passes a point at
        infinity of the quadratic E_{1,2}."""
        code, doc = run_json(capsys, "order", "--p", "23", "--d", "2",
                             "--point", "6,11")
        assert code == 0
        assert doc["order"] == montgomery_point_order((6, 11), 23, 1, 2)

    @pytest.mark.parametrize("argv,order,counters", [
        (("--p", "23", "--d", "-1", "--point", "3,6"), 24,
         {"M": 76, "S": 44, "I": 0, "A": 109}),
        (("--p", "19", "--a", "4", "--d", "2", "--point", "10,8"), 5,
         {"M": 76, "S": 38, "I": 0, "A": 95}),
    ])
    def test_counters(self, capsys, argv, order, counters):
        """The ladder runs on the curve's `xline` (a - d, a) and divides
        nothing; off a = 1, C = a is not one, so each doubling costs
        1 M more.  The curve order it strips is a diagnostic and adds
        nothing."""
        code, doc = run_json(capsys, "order", *argv)
        assert code == 0
        assert doc["order"] == order
        assert doc["counters"] == counters


class TestIsogeny:
    def test_worked_example(self, capsys):
        code, doc = run_json(capsys, "isogeny", "--p", "23", "--d", "-1",
                             "--degree", "3", "--gen", "-10,9",
                             "--point", "2,2")
        assert code == 0
        assert doc["image"] == [7, 7]
        assert doc["d_prime"] == -2
        assert doc["A"] == -10
        assert doc["codomain_class"] == "complete"

    def test_kernel_lists_full_points(self, capsys):
        """The kernel of the `isogeny` command comes from the full point,
        so it prints with its y: the generator's, then each multiple's
        exact sign, recovered from the x-line."""
        code, doc = run_json(capsys, "isogeny", "--p", "23", "--d", "-1",
                             "--degree", "3", "--gen", "-10,9")
        assert code == 0
        assert doc["kernel"] == [[-10, 9]]
        code, doc = run_json(capsys, "isogeny", "--p", "19", "--d", "-1",
                             "--degree", "5", "--gen", "6,4")
        assert code == 0
        assert doc["kernel"] == [[6, 4], [-8, -2]]
        code, doc = run_json(capsys, "isogeny", "--p", "83", "--d", "-1",
                             "--degree", "7", "--gen", "7,3")
        assert code == 0
        assert doc["kernel"] == [[7, 3], [23, -5], [-37, 13]]

    def test_bad_generator_is_domain_error(self, capsys):
        code, doc = run_json(capsys, "isogeny", "--p", "23", "--d", "-1",
                             "--degree", "3", "--gen", "2,2")
        assert code == 1
        assert doc["status"] == "error"
        assert doc["code"] == "BadKernelGenerator"

    def test_point_off_curve(self, capsys):
        code, doc = run_json(capsys, "isogeny", "--p", "23", "--d", "-1",
                             "--degree", "3", "--gen", "-10,9",
                             "--point", "5,5")
        assert code == 1
        assert doc["code"] == "NotOnCurve"

    def test_generator_double_at_infinity(self, capsys):
        """(3, 4) has order 4 on the quadratic E_{1,4} over F_23, and its
        double is a singular point at infinity."""
        code, doc = run_json(capsys, "isogeny", "--p", "23", "--d", "4",
                             "--degree", "3", "--gen", "3,4")
        assert code == 1
        assert doc["code"] == "ExceptionalPair"
        assert doc["message"] == "double lies at infinity"

    def test_degree_above_desk_scale(self, capsys):
        code, doc = run_json(capsys, "isogeny", "--p", "23", "--d", "-1",
                             "--degree", "1000001", "--gen", "-10,9")
        assert code == 1
        assert doc["code"] == "DeskScaleOnly"

    def test_large_degree_stops_at_generator_order(self, capsys):
        """The order-3 generator is rejected at 3Q = O, not after
        building 100,000 multiples."""
        code, doc = run_json(capsys, "isogeny", "--p", "23", "--d", "-1",
                             "--degree", "200001", "--gen", "-10,9")
        assert code == 1
        assert doc["code"] == "BadKernelGenerator"
        assert doc["message"] == ("generator order divides a proper factor "
                                  "of 200001")

    def test_point_shares_the_inversion_of_d_prime(self, capsys):
        """With --point, d' comes from the inversion that makes the image
        affine; every other field is as without it.  The 5-isogeny of
        the worked example maps (2, 8) to (0, 1)."""
        args = ("isogeny", "--p", "19", "--d", "-1", "--degree", "5",
                "--gen", "6,4")
        _, alone = run_json(capsys, *args)
        code, doc = run_json(capsys, *args, "--point", "2,8")
        assert code == 0
        assert doc.pop("image") == [0, 1]
        assert doc["counters"]["I"] == alone["counters"]["I"]
        doc.pop("counters"), alone.pop("counters")
        assert doc == alone

    def test_point_check_is_uncounted(self, capsys):
        """The on-curve check of --gen and --point adds no operations:
        the tallies are the generator check, the x-line kernel, the
        codomain (D' : C'), and one evaluation made affine with d' by
        one inversion."""
        code, doc = run_json(capsys, "isogeny", "--p", "23", "--d", "-1",
                             "--degree", "3", "--gen", "-10,9",
                             "--point", "2,2")
        assert code == 0
        assert doc["counters"] == {"M": 33, "S": 15, "I": 1, "A": 29}

    @pytest.mark.parametrize("args,counters", [
        (("--p", "19", "--degree", "5", "--gen", "6,4"),
         {"M": 36, "S": 18, "I": 1, "A": 28}),
        (("--p", "19", "--degree", "5", "--gen", "6,4", "--point", "2,8"),
         {"M": 66, "S": 27, "I": 1, "A": 39}),
        (("--p", "23", "--degree", "3", "--gen", "-10,9"),
         {"M": 10, "S": 9, "I": 1, "A": 22}),
        (("--p", "83", "--degree", "7", "--gen", "7,3"),
         {"M": 62, "S": 25, "I": 1, "A": 46})])
    def test_kernel_x_share_the_inversion_of_d_prime(self, capsys, args,
                                                     counters):
        """The kernel x_i (for A), the y of 2Q, ..., sQ, d' and the image
        take one inversion together: 1 I at every degree."""
        code, doc = run_json(capsys, "isogeny", "--d", "-1", *args)
        assert code == 0
        assert doc["counters"] == counters

    def test_general_a(self, capsys):
        """--a reaches the isogeny: the 5-isogeny of the complete E_{4,2}
        over F_19 from (10, 8) goes to E_{4,-4}, by one inversion."""
        code, doc = run_json(capsys, "isogeny", "--p", "19", "--a", "4",
                             "--d", "2", "--gen", "10,8", "--degree", "5")
        assert code == 0
        assert doc["kernel"] == [[-9, 8], [-6, 6]]
        assert (doc["A"], doc["d_prime"]) == (-3, -4)
        assert doc["codomain_class"] == "complete"
        assert doc["counters"]["I"] == 1


class TestChain:
    def test_two_step(self, capsys):
        code, doc = run_json(capsys, "chain", "--p", "59", "--d", "-1",
                             "--gen", "7,5", "--degrees", "3,5",
                             "--point", "9,25")
        assert code == 0
        assert [s["degree"] for s in doc["steps"]] == [3, 5]
        assert "j" in doc and "image" in doc

    def test_point_is_carried_as_an_image(self, capsys):
        """--point is pushed through the chain and made affine with every
        step's kernel x, d' and j by one inversion."""
        code, doc = run_json(capsys, "chain", "--p", "59", "--d", "-1",
                             "--gen", "7,5", "--degrees", "3,5",
                             "--point", "9,25")
        assert code == 0
        assert doc["image"] == [1, 0]
        assert doc["counters"] == {"M": 115, "S": 45, "I": 1, "A": 75}

    def test_kernel_lists_x_only(self, capsys):
        """A chain's kernels are built on the x-line and have no y sign,
        so each representative prints as {"x": ...}; the x are those of
        Q and 2Q for the full points the `isogeny` command prints."""
        code, doc = run_json(capsys, "chain", "--p", "59", "--d", "-1",
                             "--gen", "7,5", "--degrees", "3,5")
        assert code == 0
        assert [s["kernel"] for s in doc["steps"]] == [
            [{"x": 28}], [{"x": -12}, {"x": 16}]]

    def test_point_off_curve(self, capsys):
        code, doc = run_json(capsys, "chain", "--p", "23", "--d", "-1",
                             "--gen", "-10,9", "--degrees", "3",
                             "--point", "5,5")
        assert code == 1
        assert doc["code"] == "NotOnCurve"

    def test_generator_off_curve(self, capsys):
        code, doc = run_json(capsys, "chain", "--p", "23", "--d", "-1",
                             "--gen", "5,5", "--degrees", "3,3")
        assert code == 1
        assert doc["code"] == "NotOnCurve"

    @pytest.mark.parametrize("degrees", ["3,-3", "3,1"])
    def test_degree_below_three(self, capsys, degrees):
        code, doc = run_json(capsys, "chain", "--p", "59", "--d", "-1",
                             "--gen", "7,5", f"--degrees={degrees}")
        assert code == 1
        assert doc["code"] == "BadKernelGenerator"
        assert doc["message"] == "degree must be an odd integer >= 3"

    @pytest.mark.parametrize("degrees", ["3,,5", "x"])
    def test_unparsable_degrees_are_usage_errors(self, capsys, degrees):
        with pytest.raises(SystemExit) as exc:
            main(["chain", "--p", "59", "--d", "-1", "--gen", "7,5",
                  f"--degrees={degrees}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "expected comma-separated integers" in err


class TestSearchPrimes:
    def test_smallest(self, capsys):
        code, out = run(capsys, "search-primes", "--bits", "6",
                        "--tolerance", "0")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        rows, summary = lines[:-1], lines[-1]
        assert {"m": 1, "n": 1, "p_hex": "3b", "bits": 6,
                "sidh_key_bits": 36, "quantum_security_bits": 1} in rows
        assert summary["status"] == "ok"
        assert summary["target_key_bits"] == 36

    def test_key_sizing_for_128_bit_level(self, capsys):
        """The sizing identity: a 768-bit modulus means 4608-bit keys."""
        code, out = run(capsys, "search-primes", "--bits", "768",
                        "--tolerance", "0", "--window", "0", "--limit", "0")
        summary = json.loads(out.splitlines()[-1])
        assert summary["target_key_bits"] == 4608

    @pytest.mark.parametrize("flag", ["--window", "--tolerance"])
    def test_negative_grid_is_domain_error(self, capsys, flag):
        code, doc = run_json(capsys, "search-primes", "--bits", "100",
                             flag, "-1")
        assert code == 1
        assert doc["code"] == "InvalidParameter"

    @pytest.mark.parametrize("flags", [
        ["--bits", "100000"],
        ["--bits", "40", "--window", "999999999999"],
        ["--bits", "40", "--tolerance", "999999999999"]])
    def test_huge_grid_is_domain_error(self, capsys, flags):
        """A grid beyond the search bounds is refused before any
        candidate is built."""
        code, doc = run_json(capsys, "search-primes", *flags)
        assert code == 1
        assert doc["code"] == "InvalidParameter"

    def test_negative_limit_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search-primes", "--bits", "100", "--limit", "-1"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestVerifyTable:
    def test_report(self, capsys):
        code, doc = run_json(capsys, "verify-table1")
        assert code == 0
        assert doc["all_bits_match"] is True
        assert doc["all_prime"] is True
        assert doc["all_hex_match"] is False
        assert [r["hex_match"] for r in doc["rows"]] == [True, False, True]

    @pytest.mark.parametrize("argv", [
        ["search-primes", "--bits", "6", "--tolerance", "0"],
        ["verify-table1"]])
    def test_no_counters_without_field_arithmetic(self, capsys, argv):
        """search-primes and verify-table1 do no field arithmetic, so
        their documents carry no counters rather than all-zero ones."""
        code, out = run(capsys, *argv)
        doc = json.loads(out.splitlines()[-1])
        assert (code, doc["status"]) == (0, "ok")
        assert "counters" not in doc

    def test_rounds_is_not_an_option(self, capsys):
        """The primality test fixes its own Miller-Rabin rounds; every
        row is proven, so no count would change an answer."""
        with pytest.raises(SystemExit) as exc:
            main(["verify-table1", "--rounds", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "unrecognized arguments: --rounds 4" in err


class TestSidhDemo:
    def test_agreement(self, capsys):
        code, doc = run_json(capsys, "sidh-demo", "--m", "1", "--n", "1",
                             "--seed", "42")
        assert code == 0
        assert doc["agree"] is True
        assert doc["shared_j_a"] == doc["shared_j_b"]

    def test_huge_exponent_is_refused_before_the_power(self, capsys):
        """p = 4*3^m*5^n - 1 is refused from m + n alone when it must
        exceed the limit, so a huge --m exits 1 at once with
        DeskScaleOnly, before p has more digits than str() takes."""
        code, doc = run_json(capsys, "sidh-demo", "--m", str(2 ** 20),
                             "--n", "1")
        assert code == 1
        assert doc["code"] == "DeskScaleOnly"

    def test_seed_determinism(self, capsys):
        _, a = run_json(capsys, "sidh-demo", "--m", "2", "--n", "1",
                        "--seed", "9")
        _, b = run_json(capsys, "sidh-demo", "--m", "2", "--n", "1",
                        "--seed", "9")
        assert a == b


class TestOpcountBench:
    def test_proj3(self, capsys):
        code, doc = run_json(capsys, "opcount-bench", "--op", "proj3")
        assert code == 0
        assert (doc["M"], doc["S"]) == (6, 5)
        assert doc["breakdown"]["codomain"]["M"] == 2
        assert doc["breakdown"]["codomain"]["S"] == 3
        assert doc["breakdown"]["eval"]["M"] == 4
        assert doc["breakdown"]["eval"]["S"] == 2

    def test_proj5(self, capsys):
        code, doc = run_json(capsys, "opcount-bench", "--op", "proj5")
        assert code == 0
        assert (doc["M"], doc["S"]) == (12, 8)
        assert doc["breakdown"]["eval"]["M"] == 8
        assert doc["breakdown"]["eval"]["S"] == 2
        assert doc["breakdown"]["codomain"]["M"] == 4
        assert doc["breakdown"]["codomain"]["S"] == 6


    @pytest.mark.parametrize("op,p,x,degree", [("proj3", 23, -10, 3),
                                               ("proj5", 19, 6, 5)])
    def test_counts_what_a_chain_step_runs(self, capsys, op, p, x, degree):
        """The command's codomain and eval are the tallies of a chain step
        on the same worked kernel: `OddIsogeny` built on
        `OddKernel.from_x`'s kernel, and `odd_image` of x = 2 by it."""
        f = PrimeField(p)
        kernel = OddKernel.from_x((f(x), f.one), degree,
                                  EdwardsCurve(f, f.one, f(-1)))
        want = {}
        for name, run_step in (
                ("codomain", lambda: OddIsogeny(kernel)),
                ("eval", lambda: odd_image((f(2), f.one), kernel.K))):
            since = f.counter.as_dict()
            run_step()
            want[name] = {k: n - since[k]
                          for k, n in f.counter.as_dict().items()}
        code, doc = run_json(capsys, "opcount-bench", "--op", op)
        assert code == 0
        assert doc["breakdown"] == want


class TestErrors:
    def test_composite_modulus(self, capsys):
        code, doc = run_json(capsys, "classify", "--p", "21", "--d", "2")
        assert code == 1
        assert doc["status"] == "error"

    def test_long_modulus_exits_at_once(self, capsys):
        """A 16,384-bit --p with no factor below 10,000 is refused by its
        length; a Miller-Rabin round on it takes seconds."""
        n = 2 ** 16383 + 1
        while math.gcd(n, field._TRIAL_PRODUCT) != 1:
            n += 2
        start = time.perf_counter()
        code, doc = run_json(capsys, "classify", "--p", hex(n), "--d", "2")
        assert time.perf_counter() - start < 1
        assert code == 1
        assert doc["code"] == "InvalidParameter"
        assert doc["message"] == "modulus of 16384 bits exceeds 2080"

    @pytest.mark.parametrize("call,code", [
        (lambda: setup(0, 1), "InvalidParameter"),
        (lambda: keygen(setup(1, 1), "C", 0), "ProtocolError"),
        (lambda: keygen(setup(1, 1), "A", 99), "ProtocolError"),
        (lambda: PrimeField(4), "InvalidParameter"),
        (lambda: QuadExtField(PrimeField(13)), "InvalidParameter"),
        (lambda: SearchSpec(target_bits=3), "InvalidParameter"),
        (lambda: SearchSpec(target_bits=40, window=-1), "InvalidParameter"),
        (lambda: SearchSpec(target_bits=40, variant="x"), "InvalidParameter"),
        (lambda: count_cyclic_subgroups(EdwardsCurve(
            PrimeField(23), 1, -1), 4), "InvalidParameter")],
        ids=["setup", "side", "secret", "modulus", "p_1_mod_4", "bits",
             "window", "variant", "subgroup_degree"])
    def test_public_range_errors_are_typed(self, call, code):
        """A public input out of its range raises an `EdwardsError`, which
        `main` reports as a domain error; it is still a `ValueError`."""
        with pytest.raises(EdwardsError) as exc:
            call()
        assert type(exc.value).__name__ == code
        assert isinstance(exc.value, ValueError)

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--p", "23"])       # missing --d
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestReadme:
    def test_cli_block_runs(self, capsys):
        """Every `edwards-isogeny ...` line of README's CLI block exits 0,
        and the {"M": ..., "S": ...} shown on an `opcount-bench` line is
        what the command prints."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command-line interface")[1]
        block = block.split("```sh\n")[1].split("```")[0]
        lines = [line for line in block.splitlines()
                 if line.startswith("edwards-isogeny ")]
        assert len(lines) >= 10
        for line in lines:
            command, _, comment = line.partition("#")
            code, out = run(capsys, *shlex.split(command)[1:])
            assert code == 0, line
            if "opcount-bench" in command:
                doc = json.loads(out)
                shown = re.search(r'"M": (\d+), "S": (\d+)', comment)
                assert shown, line
                assert (doc["M"], doc["S"]) == tuple(map(int, shown.groups()))


def _text(values):
    return st.sampled_from(values).map(str) if isinstance(values, list) \
        else values.map(str)


_INT = _text(st.integers(-3, 30))
# Far beyond every bound of the commands that take them: each is refused
# at once.
_HUGE = st.integers(2 ** 20, 2 ** 128) | st.integers(-2 ** 128, -2 ** 20)
_PAIR = st.tuples(st.integers(-12, 12), st.integers(-12, 12)).map(
    lambda xy: f"{xy[0]},{xy[1]}") | _text(["-10,9", "3,6", "1,0", "-1,0"])
# Moduli above MAX_MODULUS_BITS are refused before any primality round.
_CURVE = {"--p": _text([5, 7, 11, 13, 19, 23, 29, 37, 59, 4, 3, 1, 0, -7])
          | _text(st.integers(2 ** MAX_MODULUS_BITS, 2 ** 8192)),
          "--a": _INT, "--d": _INT}
# Each subcommand's flags with small values; any value may instead be a
# malformed token.
_COMMANDS = {
    "classify": _CURVE,
    "j": _CURVE,
    "points": _CURVE,
    "order": {**_CURVE, "--point": _PAIR},
    "isogeny": {**_CURVE, "--degree": _text(st.integers(-3, 12)),
                "--gen": _PAIR, "--point": _PAIR},
    "chain": {**_CURVE, "--gen": _PAIR, "--point": _PAIR,
              "--degrees": st.lists(st.sampled_from(["-3", "1", "3", "4",
                                                     "5", "7", "9"]),
                                    max_size=4).map(",".join)},
    "search-primes": {"--bits": _text(st.integers(-2, 40) | _HUGE),
                      "--window": _text(st.integers(-1, 3) | _HUGE),
                      "--tolerance": _text(st.integers(-1, 4) | _HUGE),
                      "--variant": _text(["complete", "quadratic", "cubic"]),
                      "--limit": _text(st.integers(-1, 3) | _HUGE)},
    "verify-table1": {},
    "sidh-demo": {"--m": _text(st.integers(-1, 3)),
                  "--n": _text(st.integers(-1, 2)),
                  "--seed": _text(st.integers(-2, 5)),
                  "--secret-a": _text(st.integers(-1, 27)),
                  "--secret-b": _text(st.integers(-1, 25))},
    "opcount-bench": {"--op": _text(["proj3", "proj5", "proj7"])},
}
_MALFORMED = st.sampled_from(["", " ", "x", "0x", "0x1g", "-", "--", ",",
                              "1,", ",2", "1,2,3", "3,,5", "1e3", "0b2",
                              "nan", "--p", "\u0663", "-0x", "+-1"])


@st.composite
def _argv(draw):
    """A subcommand, or rarely an unknown one, then a drawn subset of its
    flags in a drawn order, each with a value or a malformed token, and
    now and then a stray token."""
    command = draw(st.sampled_from([*_COMMANDS, "frobnicate"]))
    flags = _COMMANDS.get(command, {})
    argv = [command]
    for flag in draw(st.permutations(list(flags))):
        if draw(st.integers(0, 9)) == 0:
            continue                  # an omitted flag, required or not
        argv.append(flag)
        if draw(st.integers(0, 19)):
            argv.append(draw(flags[flag] if draw(st.integers(0, 9))
                             else _MALFORMED))
    if draw(st.integers(0, 19)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_MALFORMED))
    return argv


class TestFuzz:
    @settings(max_examples=300)
    @given(argv=_argv())
    @example(argv=["isogeny", "--p", "23", "--d", "-1", "--degree", "3",
                   "--gen", "-10,9", "--point", "3,6"])
    @example(argv=["chain", "--p", "59", "--d", "-1", "--gen", "7,5",
                   "--degrees", "3,5", "--point", "7,5"])
    @example(argv=["order", "--p", "23", "--d", "-1", "--point", "3,6"])
    @example(argv=["sidh-demo", "--m", "3", "--n", "2", "--secret-a", "26"])
    @example(argv=["search-primes", "--bits", "40", "--window", str(10 ** 12)])
    @example(argv=["verify-table1", "--rounds", str(10 ** 12)])
    def test_exit_codes(self, argv):
        """Whatever the arguments, the exit code is 0 (ok), 1 (domain
        error, as a JSON error document) or 2 (usage error), and nothing
        else escapes: no traceback."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        if code == 2:
            assert "usage:" in err.getvalue()
        else:
            doc = json.loads(out.getvalue().strip().splitlines()[-1])
            assert doc["status"] == ("ok" if code == 0 else "error")
