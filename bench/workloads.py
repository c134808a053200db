"""The four benchmark workloads.

Each workload builds its inputs from the seed, runs one operation at a
time (closed loop, one thread), and checks every output.  They reach the
library only through its public names: the package namespace and
`sidh.setup`, `sidh.keygen`, `sidh.derive_shared`, `sidh.run_exchange`.
Names are looked up at call time, so the traced run's wrappers see every
call.

Interface of a workload:

* `setup_repeats` - how many times set-up runs to time it;
* `reference` - the reference loop each part's time is divided by;
* `prepare(lib, seed)` - the set-up before the first timed operation;
* `setup_problems(lib, state)` - checks on the set-up;
* `inputs(state, i)` - the seeded inputs of operation `i`, made before
  its timer starts;
* `run(lib, state, inputs, phases)` - the timed operation; returns its
  output and its exact `OpCounter` delta (8 values: M, S, I, A and the
  four `ext_*` tallies);
* `check(lib, state, inputs, output)` - list of problems, empty when the
  output is correct;
* `report(samples)` - the workload's named end-to-end metrics.
"""

from __future__ import annotations

import inspect
import random
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

from timing import (mean_reference_seconds, median_metric,
                    modexp_reference_seconds, reference_seconds,
                    sum_of_part_medians, tail_metric)

MID_M, MID_N = 74, 55               # the 247-bit prime 4*3^74*5^55 - 1
DESK_M, DESK_N = 3, 2               # p = 2699
ZERO_COUNTS = (0,) * 8

# Exact F_{p^2} costs (M, S, I) of one x-only call, from the formulas.
XONLY_COSTS = {"xonly.get3": (2, 3, 0), "xonly.eval3": (4, 2, 0),
               "xonly.get5": (2, 6, 0), "xonly.eval5": (19, 6, 0)}

# Cofactors of the two prime families p = cof * 3^m * 5^n - 1.
SEARCH_COFACTORS = {"complete_4": 4, "quadratic_8": 8}
# Reference table: row 2's published hex carries one inserted digit.
REFERENCE_HEX_MATCH = [True, False, True]


def mid_prime() -> int:
    return 4 * 3 ** MID_M * 5 ** MID_N - 1


@contextmanager
def desk_gate_lifted(sidh, p_max: int):
    """Let `sidh.setup` accept primes up to `p_max` inside the block.

    Yields the keywords to pass to `setup`: `max_p` when `setup` takes
    it, otherwise nothing, with `sidh.DESK_PRIME_LIMIT` patched for the
    duration of the block and restored after it.
    """
    if "max_p" in inspect.signature(sidh.setup).parameters:
        yield {"max_p": p_max}
    else:
        with mock.patch.object(sidh, "DESK_PRIME_LIMIT", p_max):
            yield {}


def gate_holds(lib) -> bool:
    """True when `setup(74, 55)` is refused as beyond desk scale."""
    try:
        lib.sidh.setup(MID_M, MID_N)
    except lib.DeskScaleOnly:
        return True
    return False


def _delta(counter, since: tuple) -> tuple:
    return tuple(a - b for a, b in zip(counter.snapshot(), since))


def exchange_problems(lib, field, kp_a, kp_b, j_a, j_b) -> list[str]:
    problems = []
    if j_a != j_b:
        problems.append("shared j-invariants differ")
    for kp in (kp_a, kp_b):
        pub = kp.public
        E = lib.EdwardsCurve(field, field.one, pub.codomain_d)
        if not (E.contains(pub.image_p) and E.contains(pub.image_q)):
            problems.append(f"public images of {kp.side} are off its codomain")
    return problems


class Workload:
    """Defaults: the field-arithmetic reference loop, no set-up checks."""

    reference = staticmethod(reference_seconds)

    def setup_problems(self, lib, state) -> list[str]:
        return []


class ExchangeMid(Workload):
    name = "exchange-mid"
    setup_repeats = 7
    # Its parts last most of a second, so they too are divided by the
    # mean of several reference loops.
    reference = staticmethod(mean_reference_seconds)

    def prepare(self, lib, seed):
        with desk_gate_lifted(lib.sidh, mid_prime()) as kw:
            params = lib.sidh.setup(MID_M, MID_N, seed, **kw)
        return SimpleNamespace(seed=seed, params=params)

    def setup_problems(self, lib, state):
        if not gate_holds(lib):
            return ["desk gate not restored after the 247-bit setup"]
        return []

    def inputs(self, state, i):
        """Operation 0 uses `run_exchange`'s default secrets for the seed;
        later operations draw fresh secret pairs."""
        if i == 0:
            rng = random.Random(2 * state.seed + 1)
        else:
            rng = random.Random(f"{self.name}:{state.seed}:{i}")
        return rng.randrange(3 ** MID_M), rng.randrange(5 ** MID_N)

    def run(self, lib, state, secrets, phases):
        sidh, params = lib.sidh, state.params
        counter = params.field.counter
        c0 = counter.snapshot()
        with phases("keygen.A"):
            kp_a = sidh.keygen(params, "A", secrets[0])
        c1 = counter.snapshot()
        with phases("keygen.B"):
            kp_b = sidh.keygen(params, "B", secrets[1])
        c2 = counter.snapshot()
        with phases("derive.A"):
            j_a = sidh.derive_shared(params, kp_a, kp_b.public)
        c3 = counter.snapshot()
        with phases("derive.B"):
            j_b = sidh.derive_shared(params, kp_b, kp_a.public)
        total = _delta(counter, c0)
        # Alice's base-field M, S, I: her keygen plus her derive.
        alice = tuple(c1[k] - c0[k] + c3[k] - c2[k] for k in range(3))
        return SimpleNamespace(kp_a=kp_a, kp_b=kp_b, j_a=j_a, j_b=j_b,
                               alice=alice), total

    def check(self, lib, state, secrets, out):
        return exchange_problems(lib, state.params.field, out.kp_a, out.kp_b,
                                 out.j_a, out.j_b)

    def report(self, samples):
        return [{"name": "exchange_s", "value": sum_of_part_medians(samples),
                 "unit": "s", "samples": len(samples),
                 "note": "sum of the medians of its four calls"}]


class ExchangeDesk(Workload):
    name = "exchange-desk"
    setup_repeats = 21

    def prepare(self, lib, seed):
        # Validate the desk parameters once before timing.
        lib.sidh.setup(DESK_M, DESK_N, seed)
        return SimpleNamespace(seed=seed, gate=lib.sidh.DESK_PRIME_LIMIT)

    def setup_problems(self, lib, state):
        if not gate_holds(lib):
            return ["desk gate is not in force"]
        return []

    def inputs(self, state, i):
        return random.Random(f"{self.name}:{state.seed}:{i}").randrange(1 << 32)

    def run(self, lib, state, exchange_seed, phases):
        with phases("exchange"):
            out = lib.sidh.run_exchange(DESK_M, DESK_N, seed=exchange_seed)
        counters = out["counters"]
        total = tuple(
            counters["alice"][part][k] + counters["bob"][part][k]
            for part in ("base", "ext") for k in ("M", "S", "I", "A"))
        return out, total

    def check(self, lib, state, exchange_seed, out):
        problems = []
        if lib.sidh.DESK_PRIME_LIMIT != state.gate:
            problems.append("desk gate changed during the run")
        if not out["agree"] or out["shared_j_a"] != out["shared_j_b"]:
            problems.append("shared j-invariants differ")
        field = lib.QuadExtField(lib.PrimeField(out["params"]["p"]))
        for key in ("public_a", "public_b"):
            pub = out[key]
            E = lib.EdwardsCurve(field, field.one, field.parse(pub["d_prime"]))
            for image in ("image_p", "image_q"):
                if not E.contains(lib.AffinePoint.from_json(pub[image], field)):
                    problems.append(f"{key}.{image} is off the codomain")
        return problems

    def report(self, samples):
        times = [s.seconds for s in samples]
        tail = tail_metric("exchange_s.tail", times)
        return [median_metric("exchange_s", times)] + ([tail] if tail else [])


class IsogenyBatch(Workload):
    name = "isogeny-batch"
    setup_repeats = 9
    pool_size = 4          # kernel pairs, used in turn
    batch_size = 16        # points pushed through each step

    def prepare(self, lib, seed):
        p = mid_prime()
        field = lib.QuadExtField(lib.PrimeField(p))
        E = lib.EdwardsCurve(field, field.one, field(-1))
        rng = random.Random(f"{self.name}:{seed}")
        pool = []
        for _ in range(self.pool_size):
            g3 = self._point_of_order(lib, E, 3, rng)
            g5 = self._point_of_order(lib, E, 5, rng)
            k1 = lib.XZPoint.from_affine(g5)
            k2 = lib.XZPoint.from_affine(E.double(g5))
            shared = (k1.X.square() * k2.X.square(),
                      k1.Z.square() * k2.Z.square())
            batch = [self._random_point(lib, E, rng)
                     for _ in range(self.batch_size)]
            pool.append(SimpleNamespace(g3=g3, g5=g5, k1=k1, k2=k2,
                                        shared=shared, batch=batch))
        return SimpleNamespace(field=field, curve=E, pool=pool)

    @staticmethod
    def _random_point(lib, E, rng):
        while True:
            try:
                P = lib.recover_y(E.field.random_element(rng), E)
            except (lib.NotOnCurve, lib.ExceptionalInput):
                continue
            return P if rng.randrange(2) else P.neg()

    def _point_of_order(self, lib, E, l, rng):
        """A point of order l: (p+1)/l times a random point; the group
        is (Z/(p+1))^2, so the result has order l or 1."""
        cofactor = (E.field.p + 1) // l
        while True:
            try:
                G = E.scalar_mul(cofactor, self._random_point(lib, E, rng))
            except lib.ExceptionalPair:
                continue
            if not G.is_identity():
                return G

    def inputs(self, state, i):
        return state.pool[i % len(state.pool)]

    def run(self, lib, state, k, phases):
        E = state.curve
        counter = state.field.counter
        step_counts = {}
        c0 = counter.snapshot()
        with phases("affine3"):
            phi3 = lib.OddIsogeny(lib.OddKernel.from_generator(k.g3, 3, E))
            a3 = [phi3(P) for P in k.batch]
        with phases("affine5"):
            phi5 = lib.OddIsogeny(lib.OddKernel.from_generator(k.g5, 5, E))
            a5 = [phi5(P) for P in k.batch]
        c1 = counter.snapshot()
        with phases("xonly3"):
            k3 = lib.XZPoint.from_affine(k.g3)
            par3 = lib.get_3_isog(k3)
            x3 = [lib.eval_3_isog(lib.XZPoint.from_affine(P), k3)
                  for P in k.batch]
        step_counts["xonly3"] = _delta(counter, c1)
        c2 = counter.snapshot()
        with phases("xonly5"):
            par5 = lib.get_5_isog(k.k1, k.k2, E.d, shared=k.shared)
            x5 = [lib.eval_5_isog(lib.XZPoint.from_affine(P), k.k1, k.k2, E.d)
                  for P in k.batch]
        step_counts["xonly5"] = _delta(counter, c2)
        total = _delta(counter, c0)
        return SimpleNamespace(phi3=phi3, phi5=phi5, a3=a3, a5=a5, par3=par3,
                               par5=par5, x3=x3, x5=x5,
                               step_counts=step_counts), total

    def check(self, lib, state, k, out):
        problems = []
        b = len(k.batch)
        routes = (("3", out.phi3, out.a3, out.par3, out.x3, "xonly3",
                   "xonly.get3", "xonly.eval3"),
                  ("5", out.phi5, out.a5, out.par5, out.x5, "xonly5",
                   "xonly.get5", "xonly.eval5"))
        for deg, phi, affine, par, xonly, step, get, ev in routes:
            if par.d_prime() != phi.codomain_d:
                problems.append(f"degree {deg}: x-only and affine codomains differ")
            for P, X in zip(affine, xonly):
                if not phi.codomain.contains(P):
                    problems.append(f"degree {deg}: affine image off the codomain")
                    break
                if X.affine_x() != P.x:
                    problems.append(f"degree {deg}: x-only image differs")
                    break
            want = tuple(g + b * e for g, e in zip(XONLY_COSTS[get], XONLY_COSTS[ev]))
            got = out.step_counts[step][4:7]
            if got != want:
                problems.append(f"degree {deg}: x-only F_p^2 M/S/I {got}, want {want}")
        return problems

    def report(self, samples):
        return [{"name": f"step_s.{route}", "unit": "s", "samples": len(samples),
                 "value": sum_of_part_medians(samples, names=[f"{route}3", f"{route}5"]),
                 "note": "median degree-3 step plus median degree-5 step"}
                for route in ("affine", "xonly")]


class PrimeSearch(Workload):
    name = "prime-search"
    setup_repeats = 51
    targets_per_variant = 2
    reference = staticmethod(modexp_reference_seconds)

    def prepare(self, lib, seed):
        rng = random.Random(f"{self.name}:{seed}")
        specs = [lib.SearchSpec(rng.randint(762, 774), variant=variant)
                 for variant in (lib.COMPLETE_4, lib.QUADRATIC_8)
                 for _ in range(self.targets_per_variant)]
        return SimpleNamespace(specs=specs, expected=None)

    def inputs(self, state, i):
        return state.specs

    def run(self, lib, state, specs, phases):
        found = []
        for k, spec in enumerate(specs):
            with phases(f"search.{k}"):
                found.append(lib.search_sidh_primes(spec))
        with phases("verify"):
            rows = lib.verify_reference_table()
        return SimpleNamespace(found=found, rows=rows), ZERO_COUNTS

    def check(self, lib, state, specs, out):
        problems = []
        for spec, primes in zip(specs, out.found):
            for r in primes:
                cof = SEARCH_COFACTORS[spec.variant]
                if (r.variant != spec.variant
                        or r.p != cof * 3 ** r.m * 5 ** r.n - 1
                        or r.bit_length != r.p.bit_length()):
                    problems.append(f"prime (m={r.m}, n={r.n}) does not rebuild")
        if state.expected is None:
            state.expected = out.found
        elif out.found != state.expected:
            problems.append("search results changed between repeats")
        if not all(row["is_prime"] and row["bits_match"] for row in out.rows):
            problems.append("a reference row is not prime or has the wrong length")
        if [row["hex_match"] for row in out.rows] != REFERENCE_HEX_MATCH:
            problems.append("reference hex comparison changed")
        return problems

    def report(self, samples):
        n = self.targets_per_variant * 2
        search = {k: v for k, v in samples[0].phases.items() if k != "verify"}
        return [
            {"name": "search_s", "unit": "s", "samples": len(samples),
             "value": sum_of_part_medians(samples, names=search) / n,
             "note": f"mean over the {n} targets of each one's median"},
            median_metric("verify_table_s", [s.phases["verify"] for s in samples]),
        ]


WORKLOADS = {w.name: w for w in (ExchangeMid(), ExchangeDesk(),
                                 IsogenyBatch(), PrimeSearch())}
