"""Tests of the benchmark itself: tracer hygiene, seeded inputs, golden check.

Run with `python -m pytest -q satbench` from the repository root.
"""

import subprocess
import sys
from pathlib import Path

import harness
import tracer
import workloads
from satwin import kernel, net, runner, scenario

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def _targets():
    return list(tracer.PATCH_POINTS) + [(kernel.Kernel, "schedule", "kernel.schedule")]


def test_uninstall_restores_every_original():
    before = [vars(owner)[attr] for owner, attr, _ in _targets()]
    t = tracer.Tracer()
    try:
        with t:
            for (owner, attr, _), original in zip(_targets(), before):
                assert vars(owner)[attr] is not original, attr
            raise KeyError("leave the block by an exception")
    except KeyError:
        pass
    for (owner, attr, _), original in zip(_targets(), before):
        assert vars(owner)[attr] is original, attr


def test_names_patched_where_callers_look_them_up():
    path_rtt, rtt_table = net.path_rtt, runner.rtt_table
    jobs = [j for j in workloads.handover_sweep(1, REPO / "scenarios")
            if j.name in ("s1_wlan_to_sat", "s2_sat_to_wlan") and j.mode == "PROACTIVE"]
    t = tracer.Tracer()
    with t:
        assert runner.path_rtt is not path_rtt and net.path_rtt is not path_rtt
        assert runner.rtt_table is not rtt_table
        outcomes = harness.run_pass(jobs)
        # rtt_table reaches path_rtt through the net module's globals
        sim = runner.Simulation(scenario.parse_scenario(jobs[0].text))
        before = t.calls("net.path_rtt")
        runner.rtt_table(sim.topo, old_kind="WLAN")
        assert t.calls("net.path_rtt") - before == 3
    assert all(o.error is None for o in outcomes)
    # the runner calls rtt_table by its imported name and the planners
    # through the handover module; both routes are counted
    assert t.calls("net.rtt_table") == 2
    assert t.calls("handover.plan") == 3  # plan_terr_to_sat, allocate, plan_sat_to_terr
    assert t.scheduled["t2s-exec"] == 1 and t.scheduled["s2t-exec"] == 1
    assert t.calls("net.transmit") >= t.scheduled["link-rx"] > 0


def test_traced_and_untraced_passes_give_equal_digests():
    sweep = [j for j in workloads.handover_sweep(2, REPO / "scenarios")
             if j.name in ("s1_wlan_to_sat", "s4_three_networks")]
    jobs = sweep + workloads.roundtrip_traced(2)[6:7]  # 3 flows, baseline, traced
    untraced = harness.run_pass(jobs)
    with tracer.Tracer():
        traced = harness.run_pass(jobs)
    assert all(o.error is None for o in untraced)
    assert harness.consistent([untraced], [traced])
    assert harness.digest([untraced]) == harness.digest([traced])


def test_seed_varies_inputs_not_the_kernel_seed():
    for name in workloads.WORKLOADS:
        one = workloads.generate(name, 1, REPO / "scenarios")
        assert one == workloads.generate(name, 1, REPO / "scenarios")
        other = workloads.generate(name, 2, REPO / "scenarios")
        assert [j.text for j in one] != [j.text for j in other]
        assert all("\nseed = 1\n" in j.text for j in one + other)


def test_roundtrip_always_generates_the_single_flow_proactive_case():
    for seed in range(1, 6):
        jobs = workloads.roundtrip_traced(seed)
        assert ("roundtrip_1flow", "PROACTIVE") in {(j.name, j.mode) for j in jobs}


def test_golden_check_matches_results():
    for name, simulations, failures in harness.golden_check(REPO):
        assert simulations == 3 and failures == [], (name, failures)


def test_refuses_to_run_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", str(HERE / "run.py"), "--workload", "bulk_reno",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "-O" in proc.stderr
