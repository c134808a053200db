"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import run
from timing import Phases, tail_metric
from workloads import MID_M, MID_N, WORKLOADS, desk_gate_lifted, mid_prime

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def main_result(*argv) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(list(argv)) == 0
    text = buf.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


@pytest.fixture
def lib():
    return run.import_library()


def test_gate_lifted_only_inside_the_block(lib):
    sidh = lib.sidh
    with desk_gate_lifted(sidh, mid_prime()) as kw:
        params = sidh.setup(MID_M, MID_N, 1, **kw)
    assert params.p == mid_prime()
    with pytest.raises(lib.DeskScaleOnly):
        sidh.setup(MID_M, MID_N)


def test_exchange_desk_never_lifts_the_gate(lib, monkeypatch):
    sidh = lib.sidh
    limit = sidh.DESK_PRIME_LIMIT
    seen = []
    real_setup = sidh.setup

    def spy(*args, **kwargs):
        seen.append((sidh.DESK_PRIME_LIMIT, kwargs.get("max_p", limit)))
        return real_setup(*args, **kwargs)

    monkeypatch.setattr(sidh, "setup", spy)
    wl = WORKLOADS["exchange-desk"]
    state = wl.prepare(lib, 3)
    assert wl.setup_problems(lib, state) == []
    samples = [run.run_op(wl, lib, state, i) for i in range(5)]
    assert all(not s.problems for s in samples)
    assert len(seen) == 7          # prepare, gate check, five exchanges
    assert set(seen) == {(limit, limit)}


def test_untraced_run_prints_the_end_to_end_metrics():
    result, text = main_result("--workload", "exchange-desk", "--seconds", "0.3")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("exchange_s", "fail_ratio", '"nproc"'):
        assert name in text


def test_traced_run_prints_the_per_layer_metrics_with_identical_counts():
    result, text = main_result("--workload", "exchange-desk", "--seconds", "0.3",
                               "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert "identical to the untraced twin: yes" in text
    assert result["metrics"]["isogeny.steps"]["value"] == 10   # (3 + 2) * 2


def test_isogeny_batch_check_catches_a_wrong_image(lib):
    wl = WORKLOADS["isogeny-batch"]
    state = wl.prepare(lib, 1)
    k = wl.inputs(state, 0)
    out, _ = wl.run(lib, state, k, Phases())
    assert wl.check(lib, state, k, out) == []
    out.x5[0] = out.x5[1]
    assert any("x-only image differs" in p for p in wl.check(lib, state, k, out))


def test_tail_needs_ten_samples_beyond():
    assert tail_metric("t", list(range(99))) is None
    tail = tail_metric("t", list(range(1, 201)))
    assert tail["note"].startswith("p95") and tail["value"] == 190


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "exchange-desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
