"""`scripts/bench_pairs.py` with its subprocesses replaced: what it records
and when it exits nonzero."""

import importlib.util
import json
from types import SimpleNamespace

import pytest

from conftest import REPO_ROOT


SELF_S = ("kernel.self_s", "runner.dispatch_self_s")


def _bench_pairs(monkeypatch, change, correct=True, tier1_code=0, traced=None):
    """The script loaded as a module, its `subprocess.run` answering for
    every command it starts: the change's benchmark runs report `correct`,
    its Tier-1 run exits with `tier1_code`. Each `--trace 1` run appends
    its side to `traced`. The change's reference loop takes 40 ms, the
    parent's 10 ms."""
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  REPO_ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run(cmd, cwd, **kwargs):
        mine = cwd == change
        if "satbench/run.py" in cmd:
            names = module.E2E + module.PER_PASS + SELF_S + ("net.drops.overflow",)
            metrics = {m: {"value": 2.0 if mine else 1.0} for m in names}
            if traced is not None and cmd[-1] == "1":
                traced.append("change" if mine else "parent")
            last = {"correct": correct or not mine, "failed": 0 if correct or not mine else 1,
                    "metrics": metrics}
            host = f"host: reference loop {40.0 if mine else 10.0:.2f} ms (scaled to 20 ms); " \
                   "unscaled sim_rate 1 sim-s/s"
            return SimpleNamespace(returncode=0, stdout=f"a human line\n{host}\n{json.dumps(last)}")
        if "-c" in cmd:  # the scenario table
            return SimpleNamespace(returncode=0, stdout="{}")
        code = tier1_code if mine else 0
        summary = "1 failed, 2 passed in 0.10s" if code else "3 passed in 0.10s"
        return SimpleNamespace(returncode=code, stdout=f"...\n{summary}\n")

    monkeypatch.setattr(module, "subprocess", SimpleNamespace(run=run))
    return module


@pytest.fixture
def sides(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "satwin").mkdir(parents=True)
        (tmp_path / side / "src" / "satwin" / "a.py").write_text("x = 1\n")
    return tmp_path / "parent", tmp_path / "change", tmp_path / "out.json"


def _main(module, sides, *extra):
    parent, change, out = sides
    return module.main(["--parent", str(parent), "--change", str(change), "--out", str(out),
                        "--runs", "bulk_reno:1:2", *extra])


def test_records_each_runs_checks_and_tier1_status(monkeypatch, sides):
    traced = []
    module = _bench_pairs(monkeypatch, sides[1].resolve(), traced=traced)
    assert _main(module, sides, "--trace-seconds", "1") == 0
    report = json.loads(sides[2].read_text())
    run = report["end_to_end"]["bulk_reno/1"]
    assert run["change"]["correct"] == [True, True] and run["change"]["failed"] == [0, 0]
    assert run["sim_rate_pairs_won"] == 2
    # TRACE_RUNS traced runs per side and workload, the side that runs first alternating
    runs = module.TRACE_RUNS
    assert traced == (["parent", "change", "change", "parent"] * runs)[:2 * runs] * 3
    per_pass = report["per_pass"]["bulk_reno"]["change"]
    assert per_pass["correct"] == [True] * runs and per_pass["failed"] == [0] * runs
    assert set(per_pass["metrics"]) == set(module.PER_PASS + SELF_S)
    assert per_pass["metrics"]["kernel.self_s"] == {"runs": [2.0] * runs, "median": 2.0,
                                                    "q1": 2.0, "q3": 2.0}
    # each self time x 20 ms / the run's reference loop: 2.0 x 20 / 40 and 1.0 x 20 / 10
    assert set(per_pass["at_reference_speed"]) == set(SELF_S)
    assert per_pass["at_reference_speed"]["runner.dispatch_self_s"] == {
        "runs": [1.0] * runs, "median": 1.0, "q1": 1.0, "q3": 1.0}
    parent = report["per_pass"]["handover_sweep"]["parent"]["at_reference_speed"]
    assert parent["kernel.self_s"]["runs"] == [2.0] * runs
    assert report["per_pass"]["roundtrip_traced"]["parent"]["metrics"]["kernel.events"]["median"] == 1.0
    assert report["tier1"]["change"]["returncode"] == 0
    assert report["tier1"]["change"]["summary"] == "3 passed in 0.10s"
    assert report["src_satwin_lines"] == {"parent": 1, "change": 1}


def test_a_run_reporting_incorrect_output_stops_the_comparison(monkeypatch, sides, capsys):
    module = _bench_pairs(monkeypatch, sides[1].resolve(), correct=False)
    assert _main(module, sides) == 1
    run = json.loads(sides[2].read_text())["end_to_end"]["bulk_reno/1"]
    assert run["change"] == {"correct": [False], "failed": [1]}
    assert "bulk_reno:1:2: change run 1 reports correct: false" in capsys.readouterr().err


def test_a_failing_tier1_suite_exits_nonzero_after_writing_out(monkeypatch, sides, capsys):
    module = _bench_pairs(monkeypatch, sides[1].resolve(), tier1_code=1)
    assert _main(module, sides) == 1
    tier1 = json.loads(sides[2].read_text())["tier1"]
    assert tier1["parent"]["returncode"] == 0
    assert tier1["change"] == {"s": tier1["change"]["s"], "returncode": 1,
                               "summary": "1 failed, 2 passed in 0.10s"}
    assert "change: Tier 1 failed: 1 failed, 2 passed" in capsys.readouterr().err
