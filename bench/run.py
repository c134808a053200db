"""Benchmark of the edwards-isogeny library.

    python3 bench/run.py --workload exchange-mid --seed 1 --seconds 20 --trace 0

Runs one workload (see `workloads.py` and README.md) from the root of a
checkout, against the library in the checkout's `src/`.  Load is a
closed loop in one thread: the next operation starts when the previous
one and its checks have finished, until `--seconds` have passed.

`--trace 0` measures the end-to-end metrics.  `--trace 1` runs each
operation twice, untraced and then with the tracing wrappers of
`tracing.py` installed, and reports the per-layer metrics and the
tracing overhead.  Comment lines (`# ...`) come first; the last line of
standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import Tracer, install
from timing import (REFERENCE_NOMINAL_S, Phases, mean_reference_seconds,
                    median_metric, sum_of_part_medians)
from workloads import WORKLOADS, XONLY_COSTS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "edwards_isogeny"
OUT_DIR = ROOT / ".bench_out"

BENCH_SEED = 1          # the benchmark's seed: fail_ratio 0, count baseline
RECHECK_SEED = 7        # held out, for re-checking later claims

# Alice's base-field counts for exchange-mid at seed 1 with run_exchange's
# default secrets (ROADMAP baseline); recorded, not gated.
ALICE_BASELINE_SEED1 = {"M": 435_905, "S": 57_250, "I": 28_625}

SETUP_SEED_STRIDE = 1_000_003   # spacing of the set-up repeats' seeds

COUNT_NAMES = tuple(f"{level}.{k}" for level in ("field", "field_ext")
                    for k in ("M", "S", "I", "A"))


@dataclass
class Sample:
    op: int
    seconds: float = 0.0
    phases: dict = field(default_factory=dict)      # part -> seconds
    relative: dict = field(default_factory=dict)    # part -> reference units
    reference: list = field(default_factory=list)   # reference loop seconds
    counts: tuple = ()
    output: object = None
    problems: list = field(default_factory=list)


def import_library():
    """The package, imported from the checkout's `src/`."""
    lib = importlib.import_module(PACKAGE)
    if Path(lib.__file__).resolve().parent != SRC / PACKAGE:
        sys.exit(f"{PACKAGE} imported from {lib.__file__}, not from {SRC}")
    return lib


@dataclass
class SetUp:
    state: object
    seconds: float
    relative: float         # reference units


def set_up(wl, lib, seed: int) -> SetUp:
    """The workload's preparation, timed like a long part of an
    operation: between two runs of the field-arithmetic reference, each
    the mean of several loops."""
    phases = Phases(reference=mean_reference_seconds)
    with phases("setup"):
        state = wl.prepare(lib, seed)
    return SetUp(state, phases.seconds["setup"], phases.relative()["setup"])


def run_op(wl, lib, state, i: int, tracer=None) -> Sample:
    sample = Sample(i)
    args = wl.inputs(state, i)
    phases = Phases(tracer, wl.reference)
    try:
        out, counts = wl.run(lib, state, args, phases)
        sample.phases, sample.counts = phases.seconds, counts
        sample.relative = phases.relative()
        sample.reference = phases.reference
        sample.seconds = sum(phases.seconds.values())
        if i == 0:                     # kept for the count record
            sample.output = out
        sample.problems = wl.check(lib, state, args, out)
    except Exception as exc:           # counted as a failure, not raised
        sample.problems = [f"{type(exc).__name__}: {exc}"]
    return sample


def closed_loop(wl, lib, state, seed: int, seconds: float):
    """Operations back to back for `seconds` (at least one).  The
    set-up is timed again `wl.setup_repeats - 1` times, evenly through
    the run, each on its own seed derived from `seed`, so that its
    median samples the same spells of machine speed as the operations.
    Returns the samples and the repeats' `SetUp` records."""
    samples, setups = [], []
    start = perf_counter()
    while not samples or perf_counter() < start + seconds:
        samples.append(run_op(wl, lib, state, len(samples)))
        while (len(setups) < wl.setup_repeats - 1 and perf_counter() - start
               >= (len(setups) + 1) * seconds / wl.setup_repeats):
            r = len(setups) + 1
            setups.append(set_up(wl, lib, seed + r * SETUP_SEED_STRIDE))
    return samples, setups


def run_record(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "bench_seed": BENCH_SEED, "recheck_seed": RECHECK_SEED,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "load": "closed loop, 1 process, 1 thread"}


def say(*parts) -> None:
    print("#", *parts)


def show(m: dict) -> None:
    note = f", {m['note']}" if m.get("note") else ""
    say(f"{m['name']} = {m['value']:.6g} {m['unit']} "
        f"({m['samples']} samples{note})")


def mean_counts(samples) -> dict:
    return {name: statistics.fmean(s.counts[k] for s in samples)
            for k, name in enumerate(COUNT_NAMES)}


def report_problems(setup_problems, samples) -> None:
    for p in setup_problems:
        say("set-up problem:", p)
    for s in samples:
        for p in s.problems[:3]:
            say(f"op {s.op} problem:", p)


def print_alice_record(wl, samples, seed) -> None:
    """Alice's counts in exchange-mid operation 0, which uses
    run_exchange's default secrets for the seed."""
    if wl.name != "exchange-mid" or samples[0].problems:
        return
    got = dict(zip(("M", "S", "I"), samples[0].output.alice))
    line = (f"count record: exchange-mid seed {seed} op 0 (run_exchange "
            f"default secrets), Alice M={got['M']} S={got['S']} I={got['I']}")
    if seed == 1:
        same = got == ALICE_BASELINE_SEED1
        line += ("; ROADMAP seed-1 baseline M=435905 S=57250 I=28625 "
                 + ("reproduced" if same else "NOT reproduced"))
    say(line)


def untraced(wl, lib, args) -> dict:
    first = set_up(wl, lib, args.seed)
    state = first.state
    setup_problems = wl.setup_problems(lib, state)
    samples, setups = closed_loop(wl, lib, state, args.seed, args.seconds)
    setups.append(first)
    good = [s for s in samples if not s.problems]
    failed = len(samples) - len(good)

    say("run", json.dumps(run_record(args)))
    setup_ref = statistics.median(s.relative for s in setups)
    setup_s = setup_ref * REFERENCE_NOMINAL_S
    show({"name": "setup_s", "value": setup_s, "unit": "s",
          "samples": len(setups), "note": f"median {setup_ref:.6g} ref "
          f"x {REFERENCE_NOMINAL_S} s, the reference loop's idle time"})
    show(median_metric("setup_wall_s", [s.seconds for s in setups]))
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    if good:
        op_ref = sum_of_part_medians(good, "relative")
        show({"name": "op_ref", "value": op_ref, "unit": "ref",
              "samples": len(good), "note": "sum of per-part medians"})
        metrics["op_ref"] = {"value": op_ref, "unit": "ref"}
        show({"name": "op_s", "value": sum_of_part_medians(good), "unit": "s",
              "samples": len(good), "note": "sum of per-part medians"})
        show(median_metric("reference_s", [r for s in good for r in s.reference]))
        for m in wl.report(good):
            show(m)
        say("exact counts per operation (mean):", json.dumps(mean_counts(good)))
    say(f"fail_ratio = {failed / len(samples):.6g} ratio "
        f"({failed} failed of {len(samples)} attempted)")
    report_problems(setup_problems, samples)
    print_alice_record(wl, samples, args.seed)
    return {"correct": failed == 0 and not setup_problems,
            "attempted": len(samples), "failed": failed, "metrics": metrics}


def layer_metrics(tracer: Tracer, samples: list[Sample]) -> dict:
    """Per-layer numbers from the traced operations.  Times are seconds
    per operation summed over a layer's spans, except where a metric
    is per call (sidh.*, xonly.*, verify_row) or per setup call
    (recover_y)."""
    n = len(samples)
    ops, every = defaultdict(list), defaultdict(list)
    for s in tracer.spans:
        every[s.name].append(s)
        if s.op >= 0:
            ops[s.name].append(s)
    calls = sum((tracer.op_calls.get(s.op, Counter()) for s in samples),
                Counter())

    def per_op(name, attr="duration"):
        return sum(getattr(s, attr) for s in ops[name]) / n

    def per_call(spans):
        times = [s.duration for s in spans if s.ok]
        return statistics.median(times) if times else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {"sidh.setup_s": per_call(every["sidh.setup"])}
    for side in "AB":
        m[f"sidh.keygen_s.{side}"] = per_call(ops[f"sidh.keygen.{side}"])
        m[f"sidh.derive_s.{side}"] = per_call(ops[f"sidh.derive.{side}"])
    steps = len(ops["isogeny.step"]) / n
    m.update({
        "isogeny.chain_s": per_op("isogeny.chain", "self_time"),
        "isogeny.chain_push_s": per_op("isogeny.chain_push"),
        "isogeny.steps": steps,
        "isogeny.step_codomain_s": per_op("isogeny.step"),
        "isogeny.evals": len(ops["isogeny.eval"]) / n,
        "isogeny.step_eval_s": per_op("isogeny.eval"),
    })
    setups = sum(s.ok for s in every["sidh.setup"])
    lifts = every["isogeny.recover_y"]
    m.update({
        "isogeny.recover_y_s": ratio(sum(s.duration for s in lifts), setups),
        "isogeny.recover_y_calls": ratio(len(lifts), setups),
        "isogeny.recover_y.accept_ratio": ratio(sum(s.ok for s in lifts),
                                                len(lifts)),
    })
    doubles = calls["curve.double"] / n
    m.update({
        "curve.scalar_mul_calls": len(ops["curve.scalar_mul"]) / n,
        "curve.scalar_mul_bits": sum(s.value for s in ops["curve.scalar_mul"]) / n,
        "curve.scalar_mul_s": per_op("curve.scalar_mul"),
        "curve.double_calls": doubles,
        "curve.add_calls": calls["curve.add"] / n,
        "curve.doubles_per_step": ratio(doubles, steps),
    })
    m.update(mean_counts(samples))
    for name in XONLY_COSTS:
        spans = ops[name]
        m[f"{name}_s"] = per_call(spans)
        for k, label in ((4, "ext_M"), (5, "ext_S")):
            m[f"{name}.{label}"] = (statistics.median(s.counts[k] for s in spans)
                                    if spans else 0)
    mr = ops["field.mr"]
    candidates = [s for s in mr
                  if tracer.spans[s.parent].name.startswith("search.")]
    m.update({
        "supersingular.candidates": len(candidates) / n,
        "supersingular.prime_ratio": ratio(sum(s.value is True for s in candidates),
                                           len(candidates)),
        "field.mr_calls": len(mr) / n,
        "field.mr_s": per_op("field.mr"),
        "supersingular.verify_row_s": per_call(ops["supersingular.verify_row"]),
    })
    return m


def count_mismatches(tracer: Tracer, plain, spanned) -> int:
    """Exact-count self-checks on the traced operations: each counts the
    same as its untraced twin, and every x-only call costs exactly what
    its formula states.  Problems are attached to the traced sample;
    returns the number of operations whose counts differ."""
    mismatches = 0
    for p, t in zip(plain, spanned):
        if not (p.problems or t.problems) and tuple(t.counts) != tuple(p.counts):
            t.problems.append(f"traced counts {t.counts} != untraced {p.counts}")
            mismatches += 1
    for s in tracer.spans:
        want = XONLY_COSTS.get(s.name)
        if want is not None and s.op >= 0 and tuple(s.counts[4:7]) != want:
            spanned[s.op].problems.append(
                f"{s.name} cost F_p^2 M/S/I {tuple(s.counts[4:7])}, want {want}")
    return mismatches


def traced(wl, lib, args) -> dict:
    """Each operation runs untraced, then again with the wrappers
    installed on a second state built by a traced set-up, so the
    overhead is a paired difference."""
    plain_state = wl.prepare(lib, args.seed)
    setup_problems = wl.setup_problems(lib, plain_state)
    tracer = Tracer()
    with install(tracer, lib):
        traced_state = wl.prepare(lib, args.seed)
    plain, spanned = [], []
    deadline = perf_counter() + args.seconds
    while not plain or perf_counter() < deadline:
        i = len(plain)
        plain.append(run_op(wl, lib, plain_state, i))
        with install(tracer, lib):
            tracer.begin_op(i)
            with tracer.span(wl.name):
                spanned.append(run_op(wl, lib, traced_state, i, tracer))
    mismatches = count_mismatches(tracer, plain, spanned)
    samples = plain + spanned
    failed = sum(bool(s.problems) for s in samples)

    say("run", json.dumps(run_record(args)))
    m = layer_metrics(tracer, spanned)
    plain_op = statistics.median(s.seconds for s in plain)
    m["trace.overhead_s"] = statistics.median(
        t.seconds - p.seconds for p, t in zip(plain, spanned))
    m["trace.overhead_ratio"] = m["trace.overhead_s"] / plain_op
    for name, value in m.items():
        say(f"{name} = {value:.6g} {unit_of(name)}")
    say(f"traced {len(spanned)} operations ({len(tracer.spans)} spans); "
        f"exact counts identical to the untraced twin: "
        f"{'yes' if not mismatches else f'NO, {mismatches} differ'}")
    report_problems(setup_problems, samples)
    print_alice_record(wl, spanned, args.seed)

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json"
    out.write_text(json.dumps({"record": run_record(args),
                               "spans": tracer.to_json()}))
    say("spans written to", out.relative_to(ROOT))
    return {"correct": failed == 0 and not setup_problems,
            "attempted": len(samples), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit_of(name)}
                        for name, value in m.items()}}


def unit_of(name: str) -> str:
    if any(part.endswith("_s") for part in name.split(".")):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    lib = import_library()
    wl = WORKLOADS[args.workload]
    result = (traced if args.trace else untraced)(wl, lib, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
