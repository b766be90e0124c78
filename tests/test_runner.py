import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (DIGEST_RUNS, REPO_ROOT, SCENARIOS, all_events, cut, packet_log,
                      scenario_path)
from satwin import net, runner
from satwin.errors import ConfigError, ProtocolViolation
from satwin.kernel import SEC, Kernel, SchedulingError, SimError, fmt_time
from satwin.metrics import DropRecord, Trace, write_csv
from satwin.net import (F_ACK, F_BU, F_BUACK, F_DATA, NO_COVERAGE, DirectedLink, Topology,
                        pending_arrivals)
from satwin.runner import Simulation, compare, run
from satwin.scenario import MODES, load_scenario, parse_scenario
from satwin.tcp import TcpSender
from test_scenario import _assert_mn_interval

SINGLE_LINK = """
[sim]
end = 3.0
attach = WLAN
w_default = 131072

[node.CN]
role = cn
[node.HA]
role = ha
[node.GW]
role = gateway
kind = WLAN
[node.MN]
role = mn

[link.wlan]
a = MN
b = GW
kind = WLAN
bandwidth = 10000000
delay = 0.010
queue = 1000000

[link.gw_cn]
a = GW
b = CN
bandwidth = 100000000
delay = 0.005
queue = 1000000

[link.gw_ha]
a = GW
b = HA
bandwidth = 100000000
delay = 0.005
queue = 1000000

[flow.f1]
src = CN
dst = MN
start = 0.0
volume = 1000000
"""


def test_loss_free_single_path_bulk_transfer():
    metrics, _ = run(parse_scenario(SINGLE_LINK, "single"))
    fm = metrics.flows["f1"]
    assert fm.delivered_inorder == 1_000_000
    assert fm.retransmits == 0 and fm.rto_times == []
    assert fm.bytes_dropped == 0
    assert 0 < fm.goodput_bps() <= 10_000_000  # within link capacity
    assert fm.conservation_residual() == 0


def test_unknown_mode_is_config_error():
    # mode names here are the canonical upper-case ones; a CLI spelling
    # such as "baseline" must not silently run some other procedure
    with pytest.raises(ConfigError):
        run(parse_scenario(SINGLE_LINK, "single"), mode="baseline")


def test_same_seed_identical_trace_and_metrics():
    scenario = parse_scenario(SINGLE_LINK, "single")
    runs = [run(scenario, seed=5, trace=True) for _ in range(2)]
    assert runs[0][1].text() == runs[1][1].text()
    assert write_csv(runs[0][0].csv_rows()) == write_csv(runs[1][0].csv_rows())


def test_ack_pacing_shifts_every_ack_arrival_exactly():
    # one window's worth of data on an uncontended path: every ACK arrives
    # exactly extra_delay later than in the unpaced run
    volume_two_segments = SINGLE_LINK.replace("volume = 1000000", "volume = 2920")
    paced = volume_two_segments.replace(
        "volume = 2920", "volume = 2920\nack_extra_delay = 0.05"
    )

    def ack_arrivals(text):
        _, trace = run(parse_scenario(text, "pace"), trace=True)
        return [
            int(float(line.split()[0]) * 1_000_000)
            for line in trace.lines
            if " ack_rx " in line
        ]

    base = ack_arrivals(volume_two_segments)
    shifted = ack_arrivals(paced)
    assert len(base) == 2
    assert shifted == [t + 50_000 for t in base]


def test_shipped_comparisons_match_golden_results(shipped_scenarios):
    # results/*.csv hold scripts/run_comparisons.py's output: every shipped
    # handover scenario in all three modes at seed 1
    for name in ("s1_wlan_to_sat", "s2_sat_to_wlan", "s3_multiflow", "s4_three_networks"):
        rows = compare(shipped_scenarios[name], ["BASELINE", "PROACTIVE", "RESET_CWND"], seed=1)
        golden = (REPO_ROOT / "results" / f"{name}_compare.csv").read_text()
        assert write_csv(rows) == golden, name


# sha256 of the CSV and the trace of every shipped handover scenario
# (S1-S5) in all three modes at seed 1: a run whose output moves must say why
GOLDEN_RUNS = json.loads((REPO_ROOT / "tests" / "golden_runs.json").read_text())


@pytest.mark.parametrize("case", sorted(GOLDEN_RUNS))
def test_shipped_runs_match_golden_csv_and_trace_digests(case):
    name, mode = case.split("/")
    metrics, trace = run(load_scenario(scenario_path(name)), mode=mode, seed=1, trace=True)
    digests = {"csv": hashlib.sha256(write_csv(metrics.csv_rows()).encode()).hexdigest(),
               "trace": hashlib.sha256(trace.text().encode()).hexdigest()}
    assert digests == GOLDEN_RUNS[case]


def test_digest_script_prints_the_pinned_s4_digests():
    assert DIGEST_RUNS.shipped_digests(["s4_three_networks"]) == \
        {case: d for case, d in GOLDEN_RUNS.items() if case.startswith("s4_three_networks/")}


def test_digest_script_prints_the_all_events_reference(monkeypatch, capsys):
    # `--all-events` runs every hop by an event: S5 takes more events than
    # with the shortcuts, and its CSV and trace digests are the same. It
    # also runs each job normally (the shortcut events once more) to check
    # that, and exits 0 with nothing on stderr
    monkeypatch.setattr(DIGEST_RUNS, "SHIPPED", ("s5_roundtrip",))
    steps, run_until = [], Kernel.run_until
    monkeypatch.setattr(Kernel, "run_until", lambda k, t: steps.append(run_until(k, t)) or steps[-1])
    out = {}
    for flags in ([], ["--all-events"]):
        steps.clear()
        assert DIGEST_RUNS.main(flags) == 0
        printed = capsys.readouterr()
        lines = printed.out.splitlines()
        assert [line.split(" ", 1)[0] for line in lines[:-1]] == \
            [f"shipped/s5_roundtrip/{mode}" for mode in MODES]
        assert printed.err == ""
        out[bool(flags)] = printed.out, sum(steps)
    (shortcut, shortcut_events), (reference, both_events) = out[False], out[True]
    assert shortcut == reference
    assert both_events - shortcut_events > 2 * shortcut_events


def test_digest_script_names_each_run_that_differs_from_the_all_events_reference(monkeypatch,
                                                                                 capsys):
    # a reference that runs PROACTIVE as BASELINE stands in for a shortcut
    # that changed a run: only S5's PROACTIVE run differs, and the exit is 1
    monkeypatch.setattr(DIGEST_RUNS, "SHIPPED", ("s5_roundtrip",))
    reference = DIGEST_RUNS.all_events

    @contextlib.contextmanager
    def changed_reference():
        with reference(), mock.patch.dict(runner._PROCEDURES,
                                          {"PROACTIVE": runner._PROCEDURES["BASELINE"]}):
            yield

    monkeypatch.setattr(DIGEST_RUNS, "all_events", changed_reference)
    assert DIGEST_RUNS.main(["--all-events"]) == 1
    printed = capsys.readouterr()
    assert len(printed.out.splitlines()) == len(MODES) + 1
    assert printed.err == "differs from the all-events reference: shipped/s5_roundtrip/PROACTIVE\n"


def test_digest_script_names_each_run_whose_csv_the_trace_changes(monkeypatch, capsys):
    # a traced PROACTIVE run that runs as BASELINE stands in for a trace
    # that changes the run: with its trace flipped, only S5's PROACTIVE run
    # gives another CSV, and the exit is 1
    monkeypatch.setattr(DIGEST_RUNS, "SHIPPED", ("s5_roundtrip",))
    init = Simulation.__init__

    def traced_as_baseline(sim, scenario, mode=None, seed=None, trace=False):
        init(sim, scenario, "BASELINE" if trace and mode == "PROACTIVE" else mode, seed, trace)

    monkeypatch.setattr(Simulation, "__init__", traced_as_baseline)
    assert DIGEST_RUNS.main(["--all-events"]) == 1
    printed = capsys.readouterr()
    assert len(printed.out.splitlines()) == len(MODES) + 1
    assert printed.err == "differs with the trace flipped: shipped/s5_roundtrip/PROACTIVE\n"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["s1_wlan_to_sat", "s5_roundtrip"])
def test_the_all_events_reference_leaves_no_shortcut(monkeypatch, name, mode):
    # under `all_events()` no link has a feeder or a hand-off bound and no
    # link into the agent is recorded, when the routes are resolved (the
    # run's first event), at every quiet-interval check and at the end, traced
    # and untraced; without it the same runs have shortcuts
    scenario = load_scenario(scenario_path(name))
    resolve, resume = Simulation._resolve_routes, Simulation._resume_hand_off
    seen = []

    def shortcuts(sim):
        links = sim.topo.directed.values()
        return [link.label for link in links if link.feeder or link.hand_off_before], dict(sim._into)

    def checked_resolve(sim):
        resolve(sim)
        seen.append(shortcuts(sim))

    def checked_resume(sim):
        resume(sim)
        seen.append(shortcuts(sim))

    monkeypatch.setattr(Simulation, "_resolve_routes", checked_resolve)
    monkeypatch.setattr(Simulation, "_resume_hand_off", checked_resume)
    for trace in (True, False):
        seen.clear()
        with all_events():
            sim = Simulation(scenario, mode=mode, trace=trace)
            sim.run()
        seen.append(shortcuts(sim))
        assert len(seen) > 2 and seen == [([], {})] * len(seen), trace
        seen.clear()  # a run cut at the first start has its shortcuts wired
        Simulation(cut(scenario, min(f.start for f in scenario.flows)), mode=mode,
                   trace=trace).run()
        assert seen[0][0] and seen[0][1], trace


_LINK_ENDS = {"wlan": ("MN", "WGW", "WLAN"), "sat": ("MN", "SGW", "SAT"), "wgw_cn": ("WGW", "CN"),
              "wgw_ha": ("WGW", "HA"), "sgw_cn": ("SGW", "CN"), "sgw_ha": ("SGW", "HA")}


def _gateway_file(sim, links, flows):
    """A file of `sim` lines, the nodes CN, HA and MN and the gateways the
    `links` reach, each link of `_LINK_ENDS` with its (bandwidth, delay,
    queue), then the `flows` (and handover) sections."""
    nodes = dict.fromkeys(["CN", "HA", "MN"] + [n for name in links for n in _LINK_ENDS[name][:2]])
    roles = {"CN": "cn", "HA": "ha", "MN": "mn"}
    out = [f"[sim]\n{sim}"] + [f"[node.{n}]\nrole = {roles.get(n, 'gateway')}\n" for n in nodes]
    for name, (bandwidth, delay, queue) in links.items():
        a, b, *kind = _LINK_ENDS[name]
        out.append(f"[link.{name}]\na = {a}\nb = {b}\n" + "".join(f"kind = {k}\n" for k in kind)
                   + f"bandwidth = {bandwidth}\ndelay = {delay}\nqueue = {queue}\n")
    return "\n".join(out + [flows])


ZERO_DELAY_TIES = _gateway_file(
    "attach = SAT\nend = 1\nw_default = 65536\n",
    {"sat": (800000, 0, 1500), "sgw_cn": (8000, 0, 1500), "sgw_ha": (800000, 0, 3000)},
    "[flow.f0]\nsrc = SGW\ndst = MN\nstart = 0\n")

# two flows into the MN: at 0.041717 s the ACK of f0's data handed to the
# MN reaches SGW at the very microsecond f1's data does; each event ranks
# by the moment the all-events run schedules it, so f1's segment enters
# SGW->HA ahead of f0's next one with every shortcut too (f0 3,993,171.597
# b/s in BASELINE and RESET_CWND)
TWO_GATEWAY_TIES = _gateway_file(
    "attach = SAT\nend = 1.310141\nw_default = 6320\nseed = 268\nsat_default_window = 13296\n"
    "registration = PROXY\n",
    {"wlan": (8000, 0, 4500), "sat": (8000000, 0, 1500), "wgw_cn": (800000, 0.01, 4500),
     "wgw_ha": (800000, 0.001, 1500), "sgw_cn": (8000000, 0, 65536), "sgw_ha": (8000000, 0, 4500)},
    "[flow.f0]\nsrc = SGW\ndst = MN\nstart = 0.006675\nmin_share = 179\nbuffer = 3384\n"
    "ack_extra_delay = 0.000000\n\n"
    "[flow.f1]\nsrc = CN\ndst = MN\nstart = 0.002517\nack_extra_delay = 0.000000\n")

# three flows, window updates at the detection (t=0): at 0.08 s two of them
# reach their senders in the same microsecond, and t_a1 is stamped at the
# one the all-events run takes first
WINDOW_UPDATE_TIES = _gateway_file(
    "end = 1\nattach = WLAN\nw_default = 1460\nsat_default_window = 1460\n",
    {"wlan": (8000, 0, 1500), "sat": (8, 0, 1500), "wgw_cn": (8000, 0, 1500),
     "wgw_ha": (8, 0, 1500), "sgw_cn": (8, 0, 1500), "sgw_ha": (8, 0, 1500)},
    "[flow.f0]\nsrc = CN\ndst = MN\nstart = 0\nack_extra_delay = 0.000000\n\n"
    "[flow.f1]\nsrc = WGW\ndst = MN\nstart = 0\n\n"
    "[flow.f2]\nsrc = CN\ndst = MN\nstart = 0\nack_extra_delay = 0.000000\n\n"
    "[handover.h0]\nat = 0\nto = SAT\n")
# S1 with a detection at 1.0 s that aborts (the MN is on WLAN already), so
# the next quiet interval starts at the agent's next arrival, 1.000700, and
# the move onto the satellite detected at 1.003100, when the second segment
# then on cn_ha reaches the agent: the start takes the first, and the second
# keeps its event, which runs after the detection's
AGENT_BOUNDARY_TIES = scenario_path("s1_wlan_to_sat").read_text().replace(
    "at = 2.5\n", "at = 1.003100\n") + "\n[handover.0]\nat = 1.0\nto = WLAN\n"
# two flows in lockstep, every hop 0.375 s long: at 2.875 s f1's data is
# refused at CN->SGW (out of coverage) and f0's at SGW->MN (full), both by
# events of origin 2.5 s; they rank by their segments' keys, f0's copy
# being made first (at 1.0 s), on the run with every shortcut, where both
# drops are scheduled at 1.0 s, as on the all-events run, where the events
# before them reach back over four hops of equal times
LOCKSTEP_TIES = _gateway_file(
    "end = 3.593752\nattach = SAT\nw_default = 1460\n",
    {"wlan": (8, 0, 1500), "sat": (8, 0, 1500), "wgw_cn": (32000, 0, 3000),
     "wgw_ha": (32000, 0, 1500), "sgw_cn": (32000, 0, 1500), "sgw_ha": (8, 0.000001, 1500)},
    "[flow.f0]\nsrc = CN\ndst = MN\nstart = 0\nack_extra_delay = 0\n\n"
    "[flow.f1]\nsrc = CN\ndst = MN\nstart = 0\nack_extra_delay = 0\n").replace(
    "[link.sgw_cn]\n", "[link.sgw_cn]\navailability = 0:2.515626,2.875001:3.593752\n")
# a drawn file: PROACTIVE's binding update off the satellite is lost at
# 0.621000 (OVERFLOW on CN->SGW) while f0 drains SAT, and the drain never
# ends; the binding stays on SAT, yet the agent's quiet interval starts when
# t_a2 resolves (1.501501), as no t_r1 comes for the drain to read the
# watermark the agent then writes ahead of time
LOST_BU_DRAIN = _gateway_file(
    "end = 2.074391\nmode = reset-cwnd\nattach = SAT\nw_default = 2044\n",
    {"wlan": (8000, 0.001, 1500), "sat": (8000000, 0, 1500), "wgw_cn": (8000, 0, 1500),
     "wgw_ha": (8000, 0.001, 1500), "sgw_cn": (8000, 0, 1500), "sgw_ha": (8000000, 0, 9239)},
    "[flow.f0]\nsrc = CN\ndst = MN\nstart = 0.000001\n\n[handover.h0]\nat = 0\nto = WLAN\n")
TIES = {"zero_delay_ties": ZERO_DELAY_TIES, "two_gateway_ties": TWO_GATEWAY_TIES,
        "window_update_ties": WINDOW_UPDATE_TIES, "agent_boundary_ties": AGENT_BOUNDARY_TIES,
        "lockstep_ties": LOCKSTEP_TIES, "lost_bu_drain": LOST_BU_DRAIN}

# S2 whose WLAN coverage ends at 4.25 s, inside the 0.5 s lead of the boost
# detected at 4 s: PROACTIVE aborts the switch at execution
ABORTED_BOOST = scenario_path("s2_sat_to_wlan").read_text().replace(
    "queue = 131072\n", "queue = 131072\navailability = 0:4.25\n")
# S1 whose WLAN coverage ends at 2.4 s, before the detection at 2.5 s:
# PROACTIVE's window update at the detection is dropped on its first hop
LOST_WINDOW_UPDATE = scenario_path("s1_wlan_to_sat").read_text().replace(
    "queue = 131072\n", "queue = 131072\navailability = 0:2.4\n", 1)
# S2 with a move back onto the satellite detected at 4.01 s: BASELINE and
# RESET_CWND register it, and the MN's interval starts (4.280060) while
# that BUACK is still due at the MN (t_r3 4.526970); it keeps its event
BACK_TO_SAT = scenario_path("s2_sat_to_wlan").read_text() + "\n[handover.2]\nat = 4.01\nto = SAT\n"
# S2 whose WLAN gateway reaches the agent over a link of kind SAT: the BU
# the MN (or, under PROXY, WGW) sends after the move registers WLAN, the
# network it was made for, whatever kind the links it crosses have
SATELLITE_BACKHAUL = scenario_path("s2_sat_to_wlan").read_text().replace(
    "[link.wgw_ha]\n", "[link.wgw_ha]\nkind = SAT\n")
EDITED = {"s2_aborted_boost": ABORTED_BOOST, "s1_lost_window_update": LOST_WINDOW_UPDATE,
          "s2_back_to_sat": BACK_TO_SAT, "s2_satellite_backhaul": SATELLITE_BACKHAUL,
          "s2_satellite_backhaul_proxy": SATELLITE_BACKHAUL.replace(
              "registration = MN\n", "registration = PROXY\n")}


def _tie_or_shipped(name):
    texts = {**TIES, **EDITED}
    return parse_scenario(texts[name], name) if name in texts else load_scenario(scenario_path(name))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", DIGEST_RUNS.SHIPPED + tuple(TIES) + tuple(EDITED))
def test_every_shortcut_run_is_the_all_events_run(monkeypatch, name, mode):
    # every event ranks by the moment the all-events reference schedules
    # it, so the run with every shortcut is the reference run: equal
    # metrics (drops in the same order included), CSV and trace lines, also
    # where round link values make data, ACKs and window updates meet in one
    # microsecond, and where data reaches the agent at a detection. Untraced,
    # where the MN's downlinks hand off too, the packet logs are equal as well
    scenario = _tie_or_shipped(name)
    runs, logs = [], []
    for reference in (False, True):
        with all_events() if reference else contextlib.nullcontext():
            sim = Simulation(scenario, mode=mode, trace=True)
            metrics = sim.run()
            with packet_log() as log:
                logs.append((Simulation(scenario, mode=mode).run(), log))
        runs.append((metrics, write_csv(metrics.csv_rows()), sim.trace.lines))
    assert runs[0] == runs[1]
    assert logs[0] == logs[1] and logs[0][0] == metrics
    if name == "window_update_ties" and mode == "PROACTIVE":
        assert "0.080000 timeline WGW label=t_a1 t=0.080000" in runs[0][2]
    if name == "lockstep_ties":
        drops = [line.split()[2:4] for line in runs[0][2] if line.startswith("2.875000 drop")]
        assert drops == [["sat:SGW->MN", "flow=f0"], ["sgw_cn:CN->SGW", "flow=f1"]]
    if name == "agent_boundary_ties":
        _, lines, reached, events, quiet, scheduled = _agent_run(monkeypatch, scenario, mode)
        detect = scenario.handovers[1].at
        assert quiet[1] == (1_000_700, detect)
        taken, kept = [key for key in reached if quiet[1][0] < key[0] <= detect]
        assert (taken[0], kept[0]) == (1_001_900, detect)
        assert taken not in events and kept in events
        _assert_quiet_intervals(scenario, lines, reached, events, quiet, scheduled)
    if name == "lost_bu_drain" and mode == "PROACTIVE":
        _, lines, reached, events, quiet, scheduled = _agent_run(monkeypatch, scenario, mode)
        assert "0.621000 bu_lost MN handover=h0" in lines and quiet == [(1_501_501, 2_074_392)]
        assert not any(" drain_done " in line for line in lines)  # open to the end
        _assert_quiet_intervals(scenario, lines, reached, events, quiet, scheduled)
    if name.startswith("s2_satellite_backhaul"):
        assert [line.split(" ", 1)[1] for line in runs[0][2] if " bu_recv " in line] == \
            ["bu_recv HA network=WLAN"]
    if name == "s2_back_to_sat" and mode != "PROACTIVE":
        sim, taken, events, intervals = _mn_run(monkeypatch, scenario, mode)
        assert intervals[-1] == (4_280_060, scenario.end + 1)
        assert sim.metrics.handovers[1].timeline["t_r3"] == 4_526_970
        assert "4.526970 buack_recv MN network=SAT" in runs[0][2]  # from its arrival event
        _assert_mn_intervals(scenario, taken, intervals)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", DIGEST_RUNS.SHIPPED + tuple(TIES) + tuple(EDITED))
def test_the_trace_never_changes_the_run(monkeypatch, name, mode):
    # the trace changes no output: traced and untraced, a run ends with
    # equal metrics, drops in the same order included. It decides only
    # whether the MN's downlinks hand off, so the traced run executes the
    # (time, kind) events of the untraced run whose MN downlinks are
    # unwired once the routes are resolved, and no run has a `trace` event
    scenario = _tie_or_shipped(name)
    schedule, resolve, executed = Kernel.schedule, Simulation._resolve_routes, []

    def recording_schedule(kernel, at, fn, kind="event"):
        def fire(*seg):  # the segment an arrival event carries, if any
            executed.append((at, kind))
            fn(*seg)
        return schedule(kernel, at, fire, kind)

    def unwired_resolve(sim):
        resolve(sim)
        for link in sim.topo.directed.values():
            if link.dst == sim.mn:
                link.hand_off, link.hand_off_before = None, 0

    monkeypatch.setattr(Kernel, "schedule", recording_schedule)
    runs = []
    for trace, unwired in ((True, False), (False, True), (False, False)):
        executed.clear()
        with monkeypatch.context() as m:
            if unwired:
                m.setattr(Simulation, "_resolve_routes", unwired_resolve)
            metrics = Simulation(scenario, mode=mode, trace=trace).run()
        runs.append((metrics, list(executed)))
        assert all(kind != "trace" for _, kind in executed), (trace, unwired)
    (traced, traced_events), (unwired, unwired_events), (untraced, _) = runs
    assert traced == unwired == untraced
    assert traced_events == unwired_events
    if name == "two_gateway_ties" and mode != "PROACTIVE":
        assert f"{metrics.flows['f0'].goodput_bps():.3f}" == "3993171.597"


@pytest.mark.parametrize("name", sorted({case.split("/")[0] for case in GOLDEN_RUNS}))
def test_tracing_changes_no_metric_and_costs_no_per_packet_call(name, monkeypatch):
    scenario = load_scenario(scenario_path(name))
    traced = {mode: run(scenario, mode=mode, seed=1, trace=True)[0] for mode in MODES}

    def per_packet_call(*args, **kwargs):
        raise AssertionError("a per-packet Trace method ran with the trace off")

    for kind in ("send", "deliver", "ack_tx", "ack_rx", "cwnd"):
        monkeypatch.setattr(Trace, kind, per_packet_call)
    for mode in MODES:
        sim = Simulation(scenario, mode=mode, seed=1, trace=False)
        assert all(rt.sender.state_cb is None for rt in sim.flows.values())
        untraced = sim.run()
        assert sim.trace.lines == []
        # the trace-off CSV carries the digest pinned for the traced run
        csv_digest = hashlib.sha256(write_csv(untraced.csv_rows()).encode()).hexdigest()
        assert csv_digest == GOLDEN_RUNS[f"{name}/{mode}"]["csv"]
        for fid, fm in untraced.flows.items():
            ref = traced[mode].flows[fid]
            assert (fm.rto_times, fm.fr_times, fm.retransmits) == \
                (ref.rto_times, ref.fr_times, ref.retransmits), (mode, fid)
        assert untraced == traced[mode], mode  # every other field as well


def test_proactive_s1_redirection_atomicity(shipped_scenarios):
    metrics, trace = run(shipped_scenarios["s1_wlan_to_sat"], mode="PROACTIVE", trace=True)
    ho = metrics.handovers[0]
    t_r1 = ho.timeline["t_r1"]
    assert ho.timeline["t_a2"] < t_r1  # the old-window tail cleared the anchor
    assert ho.old_path_enqueues_after_tr1 == 0

    def deliveries(path):
        return [
            int(float(l.split()[0]) * 1_000_000)
            for l in trace.lines
            if " deliver " in l and f"path={path}" in l
        ]

    # single redirection boundary: nothing arrives over the satellite before
    # t_r1, and the old path finishes before the new one starts (no reorder)
    assert min(deliveries("SAT")) > t_r1
    assert max(deliveries("WLAN")) < min(deliveries("SAT"))


def test_a_broken_window_chain_is_warned_at_detection():
    # a satellite window as large as w_default breaks the selection chain
    # w_default > cache_sat >= W_REC: the run warns and still plans the move
    # with that window
    text = scenario_path("s1_wlan_to_sat").read_text()
    assert "sat_default_window = 63750" in text
    text = text.replace("sat_default_window = 63750", "sat_default_window = 131072")
    _, trace = run(parse_scenario(text, "s1_chain"), mode="PROACTIVE", trace=True)
    plan = [line for line in trace.lines if " warn " in line or " plan " in line]
    assert plan == ["2.500000 warn MN code=CHAIN_VIOLATION w_rec=131072",
                    "2.500000 plan MN direction=TERR_TO_SAT w_rec=131072 delta=0.237000 "
                    "t_r0=2.737000"]


def _s1_late_start():
    """S1 with the detection at 1.0 s and the flow's start at 3.0 s."""
    text = scenario_path("s1_wlan_to_sat").read_text()
    assert "start = 0.05" in text and "at = 2.5" in text
    text = text.replace("start = 0.05", "start = 3.0").replace("at = 2.5", "at = 1.0")
    return parse_scenario(text, "s1_late_start")


@pytest.mark.parametrize("mode", MODES)
def test_a_flow_starting_after_a_detection_sends_first_at_its_start(mode):
    # the proactive W_REC only sets the unstarted flow's cap, so no segment
    # of the flow travels before its start and in every mode its first
    # segment leaves at 3.0 s; no window update reaches a sender, so no t_a1
    metrics, trace = run(_s1_late_start(), mode=mode, trace=True)
    flow_lines = [line for line in trace.lines
                  if line.split(" ")[1] in ("flow_start", "send", "ack_tx", "ack_rx")]
    assert flow_lines[:2] == ["3.000000 flow_start CN flow=f1",
                              "3.000000 send CN flow=f1 seq=0 len=1460"]
    assert "t_a1" not in metrics.handovers[0].timeline


def test_reset_cwnd_acts_on_a_flow_that_has_not_started():
    # the policy resets every flow at the switch, started or not: the flow
    # starting at 3.0 s leaves with one segment and the satellite's BDP as
    # ssthresh, not with the initial window, and gets less than BASELINE
    goodput = {}
    for mode in ("BASELINE", "RESET_CWND"):
        metrics, trace = run(_s1_late_start(), mode=mode, trace=True)
        goodput[mode] = f"{metrics.flows['f1'].goodput_bps():.3f}"
    assert [line for line in trace.lines if " cwnd " in line][0] == \
        "1.000000 cwnd CN flow=f1 cwnd=1460 ssthresh=63750 phase=SLOW_START una=0"
    assert goodput == {"BASELINE": "514015.067", "RESET_CWND": "404320.485"}


def test_multiflow_allocation_applied_per_flow(shipped_scenarios):
    metrics, trace = run(shipped_scenarios["s3_multiflow"], mode="PROACTIVE", trace=True)
    caps = {}
    for line in trace.lines:
        m = re.search(r"wpolicy MN flow=(\w+) cap=(\d+)", line)
        if m:
            caps[m.group(1)] = int(m.group(2))
    # 2:1 weights over the 63750 B satellite window budget
    assert caps == {"f1": 42_500, "f2": 21_250}
    for fm in metrics.flows.values():
        assert fm.conservation_residual() == 0


def test_handover_gap_shrinks_under_proactive_mode(shipped_scenarios):
    s1 = shipped_scenarios["s1_wlan_to_sat"]
    gaps = {}
    for mode in ("BASELINE", "PROACTIVE"):
        metrics, _ = run(s1, mode=mode)
        row = metrics.csv_rows()[0]
        gaps[mode] = float(row["handover_gap_ms"])
    assert gaps["PROACTIVE"] < gaps["BASELINE"]


@pytest.mark.parametrize("mode", MODES)
def test_a_run_without_a_handover_never_reports_an_in_order_advance(
        monkeypatch, shipped_scenarios, mode):
    # before the first detection nothing reads an in-order advance: the run
    # copies rcv_nxt and when it last moved into FlowMetrics at its end
    def unwired(*args):
        raise AssertionError("in-order advance reported without a detection")

    monkeypatch.setattr(Simulation, "_on_inorder", unwired)
    monkeypatch.setattr(runner.FlowMetrics, "note_inorder", unwired)
    scenario = replace(shipped_scenarios["s1_wlan_to_sat"], handovers=())
    untraced, _ = run(scenario, mode=mode)
    traced, _ = run(scenario, mode=mode, trace=True)
    assert untraced.flows == traced.flows
    fm = untraced.flows["f1"]
    assert fm.delivered_inorder > 0 and fm.delivered_inorder % 1460 == 0
    assert 0 < fm.last_inorder_at <= scenario.end


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["s1_wlan_to_sat", "s5_roundtrip"])
def test_in_order_advances_are_reported_from_the_first_detection(monkeypatch, name, mode):
    # the gap window and the drains, the only readers, start at the first detection
    calls = []
    on_inorder = Simulation._on_inorder

    def recorded(sim, receiver, now):
        calls.append((sim.kernel.now, now))
        on_inorder(sim, receiver, now)

    monkeypatch.setattr(Simulation, "_on_inorder", recorded)
    scenario = load_scenario(scenario_path(name))
    first_detection = min(h.at for h in scenario.handovers)
    metrics, _ = run(scenario, mode=mode)
    assert calls and min(min(pair) for pair in calls) >= first_detection
    assert metrics.flows["f1"].handover_gap() > 0


def test_reset_cwnd_mode_reseeds_slow_start(shipped_scenarios):
    metrics, trace = run(shipped_scenarios["s1_wlan_to_sat"], mode="RESET_CWND", trace=True)
    after = [l for l in trace.lines if l.startswith("2.500000 cwnd")]
    assert after and "cwnd=1460" in after[-1]
    assert metrics.flows["f1"].conservation_residual() == 0


def test_trace_is_time_ordered(shipped_scenarios):
    _, trace = run(shipped_scenarios["s2_sat_to_wlan"], mode="PROACTIVE", trace=True)
    times = [float(line.split()[0]) for line in trace.lines]
    assert times == sorted(times)


def test_reopen_ramp_is_monotonic_after_drain(shipped_scenarios):
    metrics, trace = run(shipped_scenarios["s2_sat_to_wlan"], mode="PROACTIVE", trace=True)
    assert not metrics.handovers[0].drain_timed_out
    drain_done = next(
        float(l.split()[0]) for l in trace.lines if " drain_done " in l
    )
    rwnds = [
        int(re.search(r"rwnd=(\d+)", l).group(1))
        for l in trace.lines
        if " ack_tx " in l and float(l.split()[0]) >= drain_done
    ]
    assert rwnds and rwnds == sorted(rwnds)
    assert rwnds[0] == 2920  # first reopened window is one ramp step


def s2_lossy(extra=""):
    """S2 with a 50 ms satellite outage just before execution, which punches a
    hole into the in-flight stream (drops on the old path); `extra` sections
    are appended."""
    text = scenario_path("s2_sat_to_wlan").read_text().replace(
        "delay = 0.250\nqueue = 65536",
        "delay = 0.250\nqueue = 65536\navailability = 0.0:4.4,4.45:9.1",
    )
    return parse_scenario(text + extra, "s2_lossy")


def test_a_boost_whose_target_loses_coverage_aborts_at_execution():
    # the boost ramps from the detection; at execution (4 s + exec_lead) WLAN
    # is out of coverage, so no switch happens and the windows rest on SAT
    sim = Simulation(_tie_or_shipped("s2_aborted_boost"), mode="PROACTIVE", trace=True)
    metrics = sim.run()  # checks conservation
    ho = metrics.handovers[0]
    assert ho.aborted and ho.timeline == {}
    assert "4.000000 boost MN flow=f1 target=127500 step=2920" in sim.trace.lines
    assert "4.500000 handover_abort MN handover=1" in sim.trace.lines
    assert "4.500000 wpolicy MN flow=f1 cap=63750" in sim.trace.lines
    assert sim.attachment == "SAT" and sim.ha.bound == "SAT"
    assert all(fm.conservation_residual() == 0 for fm in metrics.flows.values())


@pytest.mark.parametrize("mode", MODES)
def test_both_hand_offs_resume_after_the_bu_once_a_window_update_is_dropped(monkeypatch, mode):
    # the window update carries its handover's mark from the moment it is
    # built, so its drop on the first hop settles it: once the BU reaches the
    # agent (t_r1), the agent's interval and the MN's start again
    starts = []
    start_interval = Simulation._start_interval

    def logged_start(sim, link):
        starts.append((sim.kernel.now, link))
        start_interval(sim, link)

    monkeypatch.setattr(Simulation, "_start_interval", logged_start)
    sim = Simulation(_tie_or_shipped("s1_lost_window_update"), mode=mode)
    metrics = sim.run()
    lost = DropRecord(2_500_000, "wlan:MN->WGW", "WLAN", NO_COVERAGE, "f1")
    assert (lost in metrics.drops) == (mode == "PROACTIVE")
    t_r1 = metrics.handovers[0].timeline["t_r1"]
    resumed = {link for at, link in starts if at >= t_r1}
    assert resumed == {sim._into["SAT"], sim._forward["SAT"][-1]}
    assert sim._unsettled == 0


def test_drain_times_out_when_a_satellite_segment_is_lost():
    # the hole in the old stream lets the drain end only by timeout
    metrics, trace = run(s2_lossy(), mode="PROACTIVE", trace=True)
    ho = metrics.handovers[0]
    assert metrics.drops_on_kind("SAT", "NO_COVERAGE") >= 1
    assert ho.drain_timed_out
    drain_line = next(l for l in trace.lines if " drain_done " in l)
    assert "timeout=yes" in drain_line
    # ramp begins anyway at 2x a full segment's round trip over the
    # satellite after execution: MN<->CN, 2 * (250 ms + 12 ms + 5 ms + 120 us)
    # for 1,500 B at 1 Mb/s and 100 Mb/s
    timeout_at = int(float(drain_line.split()[0]) * 1_000_000)
    assert timeout_at == ho.timeline["t_a0"] + 2 * 534_240
    for fm in metrics.flows.values():
        assert fm.conservation_residual() == 0


def test_one_drain_timeout_ends_every_open_drain(monkeypatch):
    # s2_lossy with a second flow: f1's drain ends when its old stream is
    # in, f2's (its hole never fills) at the handover's one drain timeout
    scenario = s2_lossy("\n[flow.f2]\nsrc = CN\ndst = MN\nstart = 0.1\n")
    kinds = Counter()
    schedule = Kernel.schedule

    def counted(kernel, at, fn, kind="event"):
        kinds[kind] += 1
        return schedule(kernel, at, fn, kind)

    monkeypatch.setattr(Kernel, "schedule", counted)
    metrics, trace = run(scenario, mode="PROACTIVE", trace=True)
    ho = metrics.handovers[0]
    assert [l for l in trace.lines if " drain_done " in l] == [
        "5.250496 drain_done MN flow=f1 timeout=no",
        f"{fmt_time(ho.timeline['t_a0'] + 2 * 534_240)} drain_done MN flow=f2 timeout=yes",
    ]
    assert kinds["drain-timeout"] == 1
    assert ho.drain_timed_out


def test_drain_timeout_covers_serialization_on_a_short_satellite_path():
    # with 1 us delays the satellite round trip is mostly the 12 ms it takes
    # to serialize a segment at 1 Mb/s: the pipe drains before the timeout
    text = re.sub(r"delay = [0-9.]+", "delay = 0.000001",
                  scenario_path("s2_sat_to_wlan").read_text())
    _, trace = run(parse_scenario(text, "s2_fast"), mode="PROACTIVE", trace=True)
    (drain_line,) = [l for l in trace.lines if " drain_done " in l]
    assert drain_line == "4.513478 drain_done MN flow=f1 timeout=no"


ONE_HANDOVER = ["s1_wlan_to_sat", "s2_sat_to_wlan", "s3_multiflow", "s4_three_networks"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ONE_HANDOVER)
def test_every_timeline_stamp_has_a_trace_line(name, mode):
    metrics, trace = run(load_scenario(scenario_path(name)), mode=mode, seed=1, trace=True)
    last = {}  # label -> t= of its last timeline line
    for line in trace.lines:
        if line.split(" ", 2)[1] == "timeline":
            label, t = re.search(r" label=(\w+) t=(\S+)", line).groups()
            last[label] = t
    (ho,) = metrics.handovers
    assert last == {label: fmt_time(at) for label, at in ho.timeline.items()}


@pytest.mark.parametrize("case", ["s2_lossy/PROACTIVE"] + [f"{name}/{mode}" for name in ONE_HANDOVER
                                                           for mode in MODES])
def test_drop_columns_count_each_flows_drops_on_the_old_and_new_kind(case):
    name, mode = case.split("/")
    scenario = s2_lossy() if name == "s2_lossy" else load_scenario(scenario_path(name))
    metrics, _ = run(scenario, mode=mode, seed=1)
    ho = metrics.handovers[0]
    rows = metrics.csv_rows()
    for row in rows:
        on = {kind: sum(1 for d in metrics.drops if d.flow_id == row["flow_id"] and d.kind == kind)
              for kind in (ho.old_kind, ho.new_kind)}
        assert (row["drops_old_path"], row["drops_new_path"]) == \
            (str(on[ho.old_kind]), str(on[ho.new_kind])), row["flow_id"]
    if name == "s2_lossy":
        assert rows[0]["drops_old_path"] == "8"  # the outage drops on the satellite


def test_engine_applies_handover_ack_pacing():
    from satwin.runner import Simulation

    text = scenario_path("s1_wlan_to_sat").read_text().replace(
        "direction = terr_to_sat", "direction = terr_to_sat\nack_pacing = 0.05"
    )
    sim = Simulation(parse_scenario(text, "s1_paced"), mode="PROACTIVE", trace=True)
    assert sim.flows["f1"].receiver.ack_delay == 0
    sim.run()
    assert sim.flows["f1"].receiver.ack_delay == 50_000
    assert "2.500000 ack_pacing MN flow=f1 delay=0.050000" in sim.trace.lines
    with pytest.raises(ConfigError):
        parse_scenario(text.replace("ack_pacing = 0.05", "ack_pacing = -0.05"), "s1_paced")


S1_PACED = scenario_path("s1_wlan_to_sat").read_text().replace(
    "direction = terr_to_sat", "direction = terr_to_sat\nack_pacing = 0.05")
S1_PACED_RETIRED = S1_PACED + "\n[handover.2]\nat = 2.6\nto = WLAN\n"


def test_ack_pacing_ends_at_the_next_detection():
    # handover 2 retires the move onto SAT before t_r0 (2.737 s): the MN
    # never leaves WLAN, and its ACKs go back to undelayed at 2.6 s
    sim = Simulation(parse_scenario(S1_PACED_RETIRED, "s1_paced_retired"), mode="PROACTIVE")
    sim.kernel.run_until(2_599_999)
    assert sim.flows["f1"].receiver.ack_delay == 50_000
    metrics = sim.run()
    assert sim.flows["f1"].receiver.ack_delay == 0
    assert round(float(metrics.csv_rows()[0]["goodput_bps"]) / 1e6, 2) == 8.54  # 5.42 paced


def test_ack_pacing_replaces_the_flow_delay_until_the_next_detection():
    text = S1_PACED_RETIRED.replace("start = 0.05", "start = 0.05\nack_extra_delay = 0.01")
    sim = Simulation(parse_scenario(text, "s1_paced_extra"), mode="PROACTIVE")
    assert sim.flows["f1"].receiver.ack_delay == 10_000
    sim.kernel.run_until(2_599_999)
    assert sim.flows["f1"].receiver.ack_delay == 50_000
    sim.run()
    assert sim.flows["f1"].receiver.ack_delay == 10_000


def test_karn_rule_matches_the_retransmitted_sequence_numbers(monkeypatch):
    # RFC 6298 section 3: no RTT sample from an ACK that covers data ever
    # retransmitted. rtx_end must decide as the set of retransmitted seqs
    # does, in every shipped run and in a lossy one
    retransmitted = {}  # sender -> every seq it retransmitted
    decisions = set()
    emit, sample = TcpSender._emit, TcpSender._sample_rtt

    def logged_emit(sender, seq, length, now, rexmit):
        if rexmit:
            retransmitted.setdefault(sender, set()).add(seq)
        emit(sender, seq, length, now, rexmit)

    def checked_sample(sender, prev_una, seg, now):
        if seg.echo is not None:
            skip = prev_una < sender.rtx_end
            seqs = retransmitted.get(sender, ())
            assert skip == any(prev_una <= s < sender.snd_una for s in seqs), (prev_una, seg)
            decisions.add(skip)
        sample(sender, prev_una, seg, now)

    monkeypatch.setattr(TcpSender, "_emit", logged_emit)
    monkeypatch.setattr(TcpSender, "_sample_rtt", checked_sample)
    runs = [(load_scenario(path), mode) for path in sorted(SCENARIOS.glob("*.scn"))
            for mode in MODES] + [(s2_lossy(), "PROACTIVE")]
    assert len(runs) == 19
    for scenario, mode in runs:
        run(scenario, mode=mode)
    assert decisions == {True, False}  # both a skipped and a taken sample


class _TimerSender:
    """What the RTO timer reads of a sender: the unacked range and the
    timeout. `on_rto` logs its firing and backs off, as the real one does."""

    def __init__(self, log):
        self.snd_una = self.snd_nxt = 0
        self.rto = 10
        self.log = log

    def on_rto(self, now):
        self.log.append(("rto", now))
        self.rto = min(2 * self.rto, 40)
        return False  # nothing to trace


def _timer_flow():
    """A simulation with an empty kernel, and one flow whose sender is a
    `_TimerSender`; returns both and the sender's log."""
    sim = Simulation(parse_scenario(SINGLE_LINK, "single"))
    sim.kernel = Kernel()
    log = []
    return sim, replace(sim.flows["f1"], sender=_TimerSender(log)), log


class _ReferenceTimer:
    """The RTO timer as a cancel and a schedule on every re-arm."""

    def __init__(self, kernel, sender):
        self.kernel, self.sender, self.event = kernel, sender, None

    def manage(self, rearm):
        sender = self.sender
        if self.event is not None and (rearm or sender.snd_nxt == sender.snd_una):
            self.kernel.cancel(self.event)
            self.event = None
        if self.event is None and sender.snd_nxt != sender.snd_una:
            self.event = self.kernel.schedule(self.kernel.now + sender.rto, self.fire, "rto")

    def fire(self):
        self.event = None
        self.sender.on_rto(self.kernel.now)
        self.manage(False)


# (step, count, new timeout): `send` puts `count` more segments in flight,
# `ack` acknowledges up to `count` of them with `rto` as the new timeout
# (re-arming when snd_una moves, draining when it reaches snd_nxt), `run`
# runs the kernel `count` microseconds on
_TIMER_STEPS = st.tuples(st.sampled_from(["send", "ack", "ack", "run", "run"]),
                         st.integers(0, 30), st.integers(1, 25))


@settings(max_examples=200, deadline=None)
@given(st.lists(_TIMER_STEPS, max_size=60))
def test_the_rto_timer_fires_as_a_cancel_and_schedule_on_every_rearm(steps):
    # the timer keeps its deadline in rto_at and leaves its event in place
    # when a re-arm moves the deadline later; the event then queues itself
    # again, so it fires when a timer re-armed by cancel and schedule would
    sim, rt, log = _timer_flow()
    ref_log = []
    ref_sender = _TimerSender(ref_log)
    ref = _ReferenceTimer(Kernel(), ref_sender)
    for step, count, rto in steps:
        if step == "run":
            sim.kernel.run_until(sim.kernel.now + count)
            ref.kernel.run_until(ref.kernel.now + count)
            continue
        for sender in (rt.sender, ref_sender):
            prev_una = sender.snd_una
            if step == "send":
                sender.snd_nxt += count
            else:
                sender.rto = rto
                sender.snd_una = min(sender.snd_una + count, sender.snd_nxt)
            rearm = sender.snd_una > prev_una
        sim._manage_rto(rt, rearm)
        ref.manage(rearm)
        assert sim.kernel.pending() == (rt.rto_event is not None) == (ref.event is not None)
        if ref.event is not None:  # the event is due at or before the deadline
            assert rt.rto_event[0] <= rt.rto_at == ref.event[0]
    sim.kernel.run_until(sim.kernel.now + 1000)
    ref.kernel.run_until(ref.kernel.now + 1000)
    assert log == ref_log


def test_an_rto_ranks_by_the_moment_its_event_was_last_queued():
    # armed at 0 for 10 and re-armed at 5 for 15, the event fires early at
    # 10 and queues itself again for 15: after X (queued at 7), before Y
    # (queued at 12)
    sim, rt, log = _timer_flow()
    kernel = sim.kernel
    rt.sender.snd_nxt = 2
    sim._manage_rto(rt, False)
    kernel.run_until(5)
    rt.sender.snd_una = 1
    sim._manage_rto(rt, True)
    kernel.run_until(7)
    kernel.schedule(15, lambda: log.append(("X", kernel.now)))
    kernel.run_until(12)
    kernel.schedule(15, lambda: log.append(("Y", kernel.now)))
    kernel.run_until(15)
    assert log == [("X", 15), ("rto", 15), ("Y", 15)]


@settings(max_examples=20, deadline=None)
@given(
    gap_start=st.integers(min_value=0, max_value=8_600_000),
    gap_len=st.integers(min_value=10_000, max_value=600_000),
    mode=st.sampled_from(["BASELINE", "PROACTIVE", "RESET_CWND"]),
)
def test_conservation_survives_random_satellite_outages(gap_start, gap_len, mode):
    # whole-pipeline stress: an arbitrary satellite outage may drop data,
    # ACKs, registration traffic, or abort the handover outright; byte
    # conservation and the run itself must survive all interleavings
    gap_end = gap_start + gap_len
    windows = []
    if gap_start > 0:
        windows.append(f"0.0:{gap_start / 1e6:.6f}")
    if gap_end < 9_100_000:  # an outage may last until the end of the run
        windows.append(f"{gap_end / 1e6:.6f}:9.1")
    text = scenario_path("s2_sat_to_wlan").read_text().replace(
        "delay = 0.250\nqueue = 65536",
        "delay = 0.250\nqueue = 65536\navailability = " + ",".join(windows),
    )
    metrics, _ = run(parse_scenario(text, "s2_outage"), mode=mode)
    for fm in metrics.flows.values():
        assert fm.conservation_residual() == 0


def test_conservation_check_survives_python_O():
    # a bare assert would vanish under -O and let the residual pass; the run
    # swallows one data segment after the detection, as
    # `test_a_segment_lost_mid_path_fails_conservation` does, and the
    # message still carries the suffix
    code = (
        "import sys\n"
        "from satwin.kernel import SimError\n"
        "from satwin.net import F_DATA\n"
        "from satwin.runner import Simulation\n"
        "from satwin.scenario import load_scenario\n"
        "assert False, 'asserts must be stripped'\n"
        "sim = Simulation(load_scenario('scenarios/s1_wlan_to_sat.scn'), mode='BASELINE')\n"
        "swallowed = []\n"
        "def lossy_arrival(seg):\n"
        "    if not swallowed and seg.flags & F_DATA and sim.kernel.now > 2_500_000:\n"
        "        swallowed.append(seg)\n"
        "        return\n"
        "    sim._on_arrival(seg)\n"
        "for dlink in sim.topo.directed.values():\n"
        "    dlink.deliver = lossy_arrival\n"
        "try:\n"
        "    sim.run()\n"
        "except SimError as exc:\n"
        "    fm = sim.metrics.flows['f1']\n"
        "    print(exc)\n"
        "    print(fm.bytes_sent, fm.bytes_delivered, fm.bytes_dropped, fm.bytes_inflight_end,\n"
        "          swallowed[0].payload_len)\n"
        "    sys.exit(3)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    message, counts = proc.stdout.splitlines()
    sent, delivered, dropped, inflight, lost = map(int, counts.split())
    assert message == (f"flow f1: sent {sent} != delivered {delivered} + dropped {dropped} + "
                       f"in-flight {inflight} (residual {lost}) "
                       "[t=7.600000 event=end-of-run handover=1]")
    assert sent - delivered - dropped - inflight == lost == 1460


def test_cli_maps_internal_invariant_to_exit_3(tmp_path, monkeypatch, capsys):
    import satwin.cli as cli
    from satwin.errors import ProtocolViolation
    from satwin.kernel import SimError

    scn = tmp_path / "mini.scn"
    scn.write_text(SINGLE_LINK)
    # a protocol violation is a SimError like any other invariant
    for error in (SimError("synthetic invariant failure"),
                  ProtocolViolation("receiver got a non-data segment")):
        def boom(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "run", boom)
        assert cli.main(["run", "--scenario", str(scn)]) == 3
        assert capsys.readouterr().err == f"internal invariant violation: {error}\n"


def test_cli_prints_a_violation_in_one_line_with_its_suffix(monkeypatch, capsys):
    # every binding update's arrival at the agent raises, as an unwired link
    # does: exit 3, and the one line names the link, the clock (t_r1), the
    # event and the handover
    import satwin.cli as cli

    path = scenario_path("s1_wlan_to_sat")
    t_r1 = run(load_scenario(path), mode="BASELINE")[0].handovers[0].timeline["t_r1"]
    on_arrival = Simulation._on_arrival

    def unwired_registration(sim, seg):
        if seg.flags & F_BU:
            net._unwired(seg)
        on_arrival(sim, seg)

    monkeypatch.setattr(Simulation, "_on_arrival", unwired_registration)
    assert cli.main(["run", "--scenario", str(path), "--mode", "baseline"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("internal invariant violation: link sgw_ha:SGW->HA not wired (flow _mip "
                       f"seq 0) [t={fmt_time(t_r1)} event=link-rx handover=1]\n")


def _route_and_uplink_counts(monkeypatch, scn, mode):
    """Run `scn`; count Topology.route_via_access calls and collect the
    (time, flags) of every transmit on the MN->SGW uplink."""
    resolved, uplink = [], []
    route_via_access, transmit = Topology.route_via_access, DirectedLink.transmit

    def counting_route(topo, *args):
        resolved.append(args)
        return route_via_access(topo, *args)

    def recording_transmit(link, seg, at):
        if (link.src, link.dst) == ("MN", "SGW"):
            uplink.append((at, seg.flags))
        return transmit(link, seg, at)

    monkeypatch.setattr(Topology, "route_via_access", counting_route)
    monkeypatch.setattr(DirectedLink, "transmit", recording_transmit)
    metrics, _ = run(scn, mode=mode)
    return len(resolved), uplink, metrics


@pytest.mark.parametrize("mode", ["BASELINE", "PROACTIVE", "RESET_CWND"])
def test_access_routes_resolve_once_per_attachment(shipped_scenarios, monkeypatch, mode):
    # ACK and agent-forward routes are looked up once per (flow or agent,
    # access kind): a run twice as long resolves exactly as many routes
    s1 = shipped_scenarios["s1_wlan_to_sat"]
    short, _, _ = _route_and_uplink_counts(monkeypatch, cut(s1, 5 * SEC), mode)
    calls, uplink, metrics = _route_and_uplink_counts(monkeypatch, cut(s1, 10 * SEC), mode)
    assert calls == short
    # after the handover the cached ACK route is the satellite one: only
    # the MN's binding update precedes its ACKs on the MN->SGW uplink
    t_r0 = metrics.handovers[0].timeline["t_r0"]
    acks = [at for at, flags in uplink if flags & F_ACK]
    assert [flags for at, flags in uplink if at <= t_r0] == [F_BU]
    assert len(acks) > 100 and min(acks) > t_r0


@pytest.mark.parametrize("mode", ["BASELINE", "PROACTIVE", "RESET_CWND"])
@pytest.mark.parametrize("name", ["s1_wlan_to_sat", "s2_sat_to_wlan", "s3_multiflow"])
def test_inflight_bytes_are_the_pending_data_arrivals(shipped_scenarios, name, mode):
    # the runner counts in-flight bytes from the segments pending link
    # arrivals carry: at a mid-transfer cut, each carries the very segment
    # its handler takes, to deliver at its route's end, admit to the next
    # link or report dropped at a hop it cut through, the handler holding no
    # segment of its own, and every flow has data on the wire
    sim = Simulation(cut(shipped_scenarios[name], 3_123_457), mode=mode)
    metrics = sim.run()
    entries = list(sim.kernel.pending_entries("link-rx"))
    carried = list(pending_arrivals(sim.kernel))
    assert len(carried) == len(entries) > 0
    for seg, entry in zip(carried, entries):
        handler = entry[2]
        assert entry[5] is seg
        if handler == sim._on_arrival:
            assert seg.hop == len(seg.route)
        else:
            assert handler.func.__name__ in ("transmit", "_drop") and handler.args == ()
    assert all(fm.bytes_inflight_end > 0 for fm in metrics.flows.values())


def _s1_with_sat_gap(start, end):
    """S1 with the satellite link down over [start, end) seconds."""
    text = scenario_path("s1_wlan_to_sat").read_text().replace(
        "delay = 0.250\nqueue = 65536",
        f"delay = 0.250\nqueue = 65536\navailability = 0.0:{start},{end}:7.6")
    return parse_scenario(text, "s1_sat_gap")


def test_a_buack_dropped_at_a_skipped_hop_is_lost_when_it_gets_there():
    # baseline registers over the satellite at 2.5 s, which goes down at 2.6 s:
    # the BU is out before the gap, the BUACK comes back over HA->SGW->MN in
    # it. SGW->MN has that one feeder, so HA->SGW admits the BUACK to it at
    # once and schedules its drop for when it reaches SGW
    scenario = _s1_with_sat_gap("2.6", "3.0")
    sim = Simulation(scenario, mode="BASELINE", trace=True)
    metrics = sim.run()
    ha_sgw, sgw_mn = sim.topo.directed[("HA", "SGW")], sim.topo.directed[("SGW", "MN")]
    assert sgw_mn.feeder is ha_sgw
    t_r1 = metrics.handovers[0].timeline["t_r1"]
    at_sgw = t_r1 + ha_sgw.spec.serialization_us(60) + ha_sgw.prop_delay  # HA->SGW is idle at t_r1
    lost = [d for d in metrics.drops if d.flow_id == "_mip"]
    assert [(d.time, d.link, d.reason) for d in lost] == [(at_sgw, sgw_mn.label, NO_COVERAGE)]
    assert [d.time for d in metrics.drops] == sorted(d.time for d in metrics.drops)
    stamp = fmt_time(at_sgw)
    assert f"{stamp} drop {sgw_mn.label} flow=_mip reason=NO_COVERAGE seq=0 len=0" in sim.trace.lines
    assert f"{stamp} bu_lost MN handover=1" in sim.trace.lines
    assert not any(" buack_recv " in line for line in sim.trace.lines)
    stamps = [tuple(map(int, line.split(" ", 1)[0].split("."))) for line in sim.trace.lines]
    assert stamps == sorted(stamps)

    # a cut after HA->SGW took the BUACK, before it reaches SGW: the drop is
    # still to come and conservation holds, the forwarded data counted in flight
    short = Simulation(cut(scenario, t_r1 + 4000), mode="BASELINE")
    cut_metrics = short.run()
    buack = [entry for entry in short.kernel.pending_entries("link-rx") if entry[5].flags & F_BUACK]
    assert [(entry[0], entry[2].func.__name__) for entry in buack] == [(at_sgw, "_drop")]
    assert short.topo.directed[("SGW", "MN")].drops[NO_COVERAGE] == 0
    assert not cut_metrics.drops
    inflight = sum(seg.payload_len for seg in pending_arrivals(short.kernel))
    assert inflight == cut_metrics.flows["f1"].bytes_inflight_end > 0


_TWO_GATEWAYS_ONE_ROUTER = """
[sim]
end = 5.0
attach = WLAN
w_default = 131072
sat_default_window = 63750

[node.CN]
role = cn
[node.HA]
role = ha
[node.R]
role = router
[node.WGW]
role = gateway
kind = WLAN
[node.SGW]
role = gateway
kind = SAT
[node.MN]
role = mn

[link.wlan]
a = MN
b = WGW
kind = WLAN
bandwidth = 10000000
delay = 0.010
queue = 131072

[link.sat]
a = MN
b = SGW
kind = SAT
bandwidth = 1000000
delay = 0.250
queue = 65536

[link.wgw_r]
a = WGW
b = R
bandwidth = 100000000
delay = 0.002
queue = 262144

[link.sgw_r]
a = SGW
b = R
bandwidth = 100000000
delay = 0.002
queue = 262144

[link.r_cn]
a = R
b = CN
bandwidth = 100000000
delay = 0.003
queue = 262144

[link.r_ha]
a = R
b = HA
bandwidth = 100000000
delay = 0.003
queue = 262144

[flow.f1]
src = CN
dst = MN
start = 0.05

[handover.1]
at = 2.5
to = SAT
"""


@pytest.mark.parametrize("mode", MODES)
def test_a_link_with_two_feeders_keeps_its_arrival_events(monkeypatch, mode):
    # both gateways reach CN through R, so R->CN has two feeders (ACKs over
    # WLAN and over SAT) and R->HA three (data from CN, BUs from each
    # gateway): a segment reaches R by an event and enters those links then.
    # R->WGW and WGW->MN have one feeder each, so agent forwards over WLAN
    # take one event for three hops
    scenario = parse_scenario(_TWO_GATEWAYS_ONE_ROUTER, "two_gateways")
    # a mid-transfer cut: data waiting at R is in flight, and conservation holds
    short = Simulation(cut(scenario, 1_234_567), mode=mode)
    metrics = short.run()
    waiting = [entry[5] for entry in short.kernel.pending_entries("link-rx")
               if getattr(entry[2], "func", entry[2]).__name__ == "transmit"]
    assert any(seg.payload_len for seg in waiting)
    assert metrics.flows["f1"].bytes_inflight_end == \
        sum(seg.payload_len for seg in pending_arrivals(short.kernel))

    passed, entered = Counter(), []
    transmit = DirectedLink.transmit

    def recording_transmit(link, seg, at):
        if seg.hop and at == link.kernel.now:  # from its arrival event short of its route's end
            passed[(seg.route[seg.hop - 1].label, link.label)] += 1
        if link.dst in ("CN", "HA") and link.src == "R":
            entered.append(at == link.kernel.now)
        transmit(link, seg, at)

    monkeypatch.setattr(DirectedLink, "transmit", recording_transmit)
    sim = Simulation(scenario, mode=mode)
    sim.run()  # conservation holds at the end
    d = sim.topo.directed
    assert d[("R", "CN")].feeder is None and d[("R", "HA")].feeder is None
    assert d[("R", "WGW")].feeder is d[("HA", "R")] and d[("WGW", "MN")].feeder is d[("R", "WGW")]
    assert d[("WGW", "R")].feeder is d[("MN", "WGW")]
    # ACKs over each gateway, data from CN and the BU over the satellite
    assert set(passed) == {("wgw_r:WGW->R", "r_cn:R->CN"), ("sgw_r:SGW->R", "r_cn:R->CN"),
                           ("r_cn:CN->R", "r_ha:R->HA"), ("sgw_r:SGW->R", "r_ha:R->HA")}
    assert min(passed.values()) == passed[("sgw_r:SGW->R", "r_ha:R->HA")] == 1
    assert entered and all(entered)  # every segment entered them from an event at R


_FORWARD_OVER_TWO_FEEDERS = """
[sim]
end = 4.0
attach = WLAN
w_default = 131072
sat_default_window = 63750

[node.CN]
role = cn
[node.HA]
role = ha
[node.R]
role = router
[node.WGW]
role = gateway
kind = WLAN
[node.SGW]
role = gateway
kind = SAT
[node.MN]
role = mn

[link.wlan]
a = MN
b = WGW
kind = WLAN
bandwidth = 1000000
delay = 0.010
queue = 131072

[link.sat]
a = MN
b = SGW
kind = SAT
bandwidth = 1000000
delay = 0.250
queue = 65536

[link.r_wgw]
a = R
b = WGW
bandwidth = 100000000
delay = 0.002
queue = 262144

[link.r_ha]
a = R
b = HA
bandwidth = 100000000
delay = 0.010
queue = 262144

[link.sgw_ha]
a = SGW
b = HA
bandwidth = 100000000
delay = 0.008
queue = 262144
availability = 0:1.2,1.5:4.0

[link.sgw_cn]
a = SGW
b = CN
bandwidth = 100000000
delay = 0.003
queue = 262144

[link.cn_r]
a = CN
b = R
bandwidth = 100000000
delay = 0.003
queue = 262144

[flow.f1]
src = WGW
dst = MN
start = 0.05

[handover.1]
at = 1.0
to = SAT

[handover.2]
at = 2.0
to = WLAN
"""


@pytest.mark.parametrize("mode", MODES)
def test_only_a_downlink_its_forward_route_cuts_through_to_hands_off(monkeypatch, mode):
    # the WLAN forward route is HA->R->WGW->MN, and R->WGW has two feeders
    # (HA->R, and CN->R on the ACK route over SAT to WGW). The binding update
    # onto SAT is lost on SGW->HA, so the binding stays on WLAN and the move
    # back registers WLAN again: its BUACK enters R->WGW from its arrival
    # event at R, after t_r1, when the data ahead of it could already have
    # started an MN interval, and WGW->MN would hand it to the receiver. So
    # WGW->MN never hands off; SGW->MN, which HA->SGW cuts through to, does
    scenario = parse_scenario(_FORWARD_OVER_TWO_FEEDERS, "forward_over_two_feeders")
    with packet_log() as log:
        sim, taken, events, intervals = _mn_run(monkeypatch, scenario, mode)
    d = sim.topo.directed
    assert d[("R", "WGW")].feeder is None and d[("SGW", "MN")].feeder is d[("HA", "SGW")]
    assert d[("WGW", "MN")].hand_off is None and d[("SGW", "MN")].hand_off is not None
    first, back = sim.metrics.handovers
    assert "t_r1" not in first.timeline and "t_r3" in back.timeline
    assert intervals == [] and all(now in events for now, _, _ in taken)
    _assert_all_events_run(scenario, mode, sim.metrics, log)


def _record_data_arrivals(m, dst, record):
    """Patch the kernel and `DirectedLink.transmit` so that `record(entry,
    made)` sees each arrival event of a data segment at `dst` as it is
    scheduled, `made` the clock then. The admission that schedules it puts
    the segment in the entry's sixth slot, so the entry is read as that
    `transmit` returns, before anything moves the segment on."""
    schedule, transmit, fresh = Kernel.schedule, DirectedLink.transmit, []

    def recording_schedule(kernel, at, fn, kind="event"):
        entry = schedule(kernel, at, fn, kind)
        if kind == "link-rx" and getattr(fn, "__name__", None) == "_on_arrival":
            fresh.append((entry, kernel.now))
        return entry

    def recording_transmit(link, seg, at):
        transmit(link, seg, at)
        for entry, made in fresh:
            if entry[5].route[-1].dst == dst and entry[5].payload_len:
                record(entry, made)
        fresh.clear()

    m.setattr(Kernel, "schedule", recording_schedule)
    m.setattr(DirectedLink, "transmit", recording_transmit)


def _agent_run(monkeypatch, scenario, mode, hand_off=True):
    """Run `scenario` traced, with the agent's hand-off or as the all-events
    reference. Returns the CSV, the trace lines, the (time, flow, seq) of
    each data segment the agent forwarded, for the same keys the times at
    which each agent-arrival event for data that ran was scheduled, the
    quiet intervals (each `(start, end)` in which the link into the agent
    hands data off, the first from the run's first event, start -1), and
    the (key, scheduled at) of every agent-arrival event for data scheduled,
    run or not."""
    reached, events, quiet, scheduled = [], {}, [], []
    with contextlib.nullcontext() if hand_off else all_events(), monkeypatch.context() as m:
        forward = Simulation._ha_forward
        resolve, resume = Simulation._resolve_routes, Simulation._resume_hand_off

        def recording_forward(sim, seg, now):
            reached.append((now, seg.flow_id, seg.seq))
            return forward(sim, seg, now)

        def recording_arrival(entry, made):
            key, handler = (entry[0], entry[5].flow_id, entry[5].seq), entry[2]
            scheduled.append((key, made))

            def fire(seg):
                events.setdefault(key, []).append(made)
                handler(seg)
            entry[2] = fire

        def recording_resolve(sim):
            resolve(sim)
            quiet.extend((-1, into.hand_off_before) for into in set(sim._into.values())
                         if into.hand_off_before)

        def recording_resume(sim):
            before = {into: into.hand_off_before for into in sim._into.values()}
            resume(sim)
            quiet.extend((sim.kernel.now, into.hand_off_before) for into, end in before.items()
                         if into.hand_off_before != end)

        m.setattr(Simulation, "_ha_forward", recording_forward)
        _record_data_arrivals(m, "HA", recording_arrival)
        m.setattr(Simulation, "_resolve_routes", recording_resolve)
        m.setattr(Simulation, "_resume_hand_off", recording_resume)
        metrics, trace = run(scenario, mode=mode, trace=True)
    return write_csv(metrics.csv_rows()), trace.lines, reached, events, quiet, scheduled


def _assert_quiet_intervals(scenario, lines, reached, events, quiet, scheduled):
    """The hand-off rule on one run: a data segment reaching the agent has
    an agent-arrival event that runs iff it gets there outside every quiet
    interval `(start, end)`. Each interval ends at a scripted detection (or
    past the run's end). One that starts after a detection starts once every
    detection so far has switched or aborted and every binding update sent
    has reached the agent (t_r1) or been lost; its start takes every
    agent-arrival event then due before its end, so none of those runs, and
    an event due by the run's end that never runs was taken so."""
    for key in reached:
        inside = any(start < key[0] < end for start, end in quiet)
        assert len(events.get(key, ())) == (0 if inside else 1), (key, quiet)
    ran = Counter((key, made) for key, made_at in events.items() for made in made_at)
    for key, made in Counter(scheduled) - ran:
        assert key[0] > scenario.end or any(made <= start < key[0] < end for start, end in quiet), \
            (key, made, quiet)
    stamped = [(int(line.split(" ", 1)[0].replace(".", "")), line) for line in lines]

    def count(word, until):
        return sum(word in line for t, line in stamped if t <= until)

    for start, end in quiet:
        assert end in [h.at for h in scenario.handovers] + [scenario.end + 1]
        if start >= 0:
            assert count(" handover_detect ", start) == \
                count(" bu_send ", start) + count(" handover_abort ", start)
            assert count(" bu_send ", start) == count("label=t_r1 ", start) + \
                count(" bu_lost ", start)
            assert not any(made <= start < due < end for (due, _, _), made_at in events.items()
                           for made in made_at), start


def _detected_at(scenario, at):
    """`scenario` with its first handover detected at `at` instead."""
    first, *rest = scenario.handovers
    return replace(scenario, handovers=(replace(first, at=at), *rest))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["s1_wlan_to_sat", "s5_roundtrip"])
def test_the_agent_hands_data_off_until_the_first_detection(monkeypatch, name, mode):
    # data reaching the agent before the first detection goes on at once
    # from the link into it (one event from source to MN). From the
    # detection on, data reaching the agent has its agent-arrival event
    # again until the next quiet interval starts (S5 has three handovers,
    # so three of them), and exactly the segments getting there outside
    # every quiet interval have one: same outputs as the all-events
    # reference. The second variant moves the detection onto a data
    # segment's arrival at the agent, which then keeps its event
    scenario = load_scenario(scenario_path(name))
    ref = _agent_run(monkeypatch, scenario, mode, hand_off=False)
    last_early = max(t for t, _, _ in ref[2] if t < scenario.handovers[0].at)
    moved = _detected_at(scenario, last_early)
    for variant, reference in ((scenario, ref),
                               (moved, _agent_run(monkeypatch, moved, mode, hand_off=False))):
        detect = variant.handovers[0].at
        csv, lines, reached, events, quiet, scheduled = _agent_run(monkeypatch, variant, mode)
        assert (csv, lines) == reference[:2] and sorted(reached) == sorted(reference[2])
        assert reference[4] == []  # the reference never hands off
        assert quiet[0] == (-1, detect) and len(quiet) == 1 + len(variant.handovers)
        _assert_quiet_intervals(variant, lines, reached, events, quiet, scheduled)
        early = [key for key in reached if key[0] < detect]
        late = [key for key in reached if key[0] >= detect]
        assert len(early) > 100 and len(late) > 100
        assert not any(key in events for key in early)
        assert any(key in events for key in late) and not all(key in events for key in late)
        assert min(t for t, _, _ in events) >= detect
    assert min(late)[0] == detect == last_early  # the segment at the detection kept its event

    # a cut before the detection, which drops it: conservation holds, and the
    # data between the source and the MN rides on the MN-arrival events
    # alone, but for data due at the agent after the run's end, where the
    # hand-off ends
    short = cut(scenario, 2_123_457)
    inflight = []
    for hand_off in (True, False):
        with contextlib.nullcontext() if hand_off else all_events():
            sim = Simulation(short, mode=mode)
            inflight.append(sim.run().flows["f1"].bytes_inflight_end)
        if hand_off:
            data = [entry for entry in sim.kernel.pending_entries("link-rx")
                    if entry[5].payload_len]
            assert data and all(entry[2] == sim._on_arrival for entry in data)
            assert any(entry[5].route[-1].dst == "MN" for entry in data)
            assert all(entry[0] > short.end for entry in data if entry[5].route[-1].dst != "MN")
            assert sum(seg.payload_len for seg in pending_arrivals(sim.kernel)) == inflight[0]
    assert inflight[0] == inflight[1] > 0


# S1 with the satellite gateway's link to the agent down from 2.5 s on
_S1_BU_DROPPED = scenario_path("s1_wlan_to_sat").read_text().replace(
    "delay = 0.008\n", "delay = 0.008\navailability = 0.0:2.5\n")


@pytest.mark.parametrize("mode", MODES)
def test_a_quiet_interval_starts_after_a_dropped_binding_update(monkeypatch, mode):
    # the binding update over SAT is dropped at the gateway, so the agent
    # keeps the WLAN binding while the MN's ACKs go over SAT: the interval
    # after the detection starts without a t_r1, after the drop
    scenario = parse_scenario(_S1_BU_DROPPED, "s1_bu_dropped")
    csv, lines, reached, events, quiet, scheduled = _agent_run(monkeypatch, scenario, mode)
    assert (csv, lines) == _agent_run(monkeypatch, scenario, mode, hand_off=False)[:2]
    drop = [line for line in lines if " drop sgw_ha:SGW->HA flow=_mip " in line]
    assert len(drop) == 1 and not any("label=t_r1 " in line for line in lines)
    (_, detect), (start, end) = quiet
    assert int(drop[0].split(" ", 1)[0].replace(".", "")) <= start < end == scenario.end + 1
    _assert_quiet_intervals(scenario, lines, reached, events, quiet, scheduled)
    assert sum(start < t for t, _, _ in reached) > 100


@pytest.mark.parametrize("mode", MODES)
def test_a_quiet_interval_takes_the_segments_still_due_at_the_agent(monkeypatch, mode):
    # S1: when the binding update reaches the agent (t_r1), data is still on
    # its way there over cn_ha, but for RESET_CWND, whose slow start from the
    # detection has left the link empty. The interval starts at t_r1 all the
    # same: its start takes those segments' agent-arrival events out of the
    # kernel, so none of them runs and each goes on from the agent for its
    # own time, and the run is the all-events run
    scenario = load_scenario(scenario_path("s1_wlan_to_sat"))
    csv, lines, reached, events, quiet, scheduled = _agent_run(monkeypatch, scenario, mode)
    assert (csv, lines) == _agent_run(monkeypatch, scenario, mode, hand_off=False)[:2]
    (_, detect), (start, end) = quiet
    t_r1 = next(int(line.split(" ", 1)[0].replace(".", "")) for line in lines
                if "label=t_r1 " in line)
    assert detect < t_r1 == start
    due = [key for key, made in scheduled if made <= t_r1 < key[0] < end]
    assert bool(due) == (mode != "RESET_CWND") and not any(key in events for key in due)
    assert set(due) <= set(reached)  # forwarded all the same, for their arrival times
    _assert_quiet_intervals(scenario, lines, reached, events, quiet, scheduled)


_TWO_LINKS_INTO_THE_AGENT = scenario_path("s1_wlan_to_sat").read_text() + """
[flow.f2]
src = WGW
dst = MN
start = 0.2
"""


@pytest.mark.parametrize("mode", MODES)
def test_two_links_into_the_agent_keep_its_arrival_events(monkeypatch, mode):
    # f1 reaches the agent over cn_ha and f2 over wgw_ha: its forward link
    # has two feeders under either binding, so no link hands off and every
    # data segment reaching the agent has an arrival event there
    scenario = parse_scenario(_TWO_LINKS_INTO_THE_AGENT, "two_links_into_ha")
    csv, lines, reached, events, quiet, _ = _agent_run(monkeypatch, scenario, mode)
    assert {fid for _, fid, _ in reached} == {"f1", "f2"} and quiet == []
    assert Counter(reached) == {key: len(made) for key, made in events.items()
                                if key[0] <= scenario.end}
    assert (csv, lines) == _agent_run(monkeypatch, scenario, mode, hand_off=False)[:2]

    # a cut mid-transfer: data waiting for its agent arrival is in flight
    sim = Simulation(cut(scenario, 1_234_567), mode=mode)
    metrics = sim.run()  # conservation holds
    assert all(link.hand_off_before == 0 for link in sim.topo.directed.values()
               if link.dst == sim.ha_node)
    waiting = [entry[5] for entry in sim.kernel.pending_entries("link-rx")
               if entry[2] == sim._on_arrival and entry[5].route[-1].dst == "HA"]
    assert {seg.flow_id for seg in waiting if seg.payload_len} == {"f1", "f2"}
    for fid, fm in metrics.flows.items():
        assert fm.bytes_inflight_end == sum(seg.payload_len for seg in pending_arrivals(sim.kernel)
                                            if seg.flow_id == fid) > 0


def _mn_run(monkeypatch, scenario, mode, trace=False):
    """Run `scenario`; returns the simulation, the (time, kernel time, kind of
    the MN downlink) of each data segment the receiver took, the due times of the data
    arrival events scheduled at the MN, and the MN intervals: each `(start,
    end)` in which a downlink hands data to the receiver, the first from the
    run's first event (start -1). At each later start it checks what
    `_assert_mn_interval` states."""
    taken, events, intervals = [], [], []
    with monkeypatch.context() as m:
        deliver = Simulation._deliver_data
        resolve, resume = Simulation._resolve_routes, Simulation._resume_mn_hand_off

        def recording_deliver(sim, seg, now):
            taken.append((now, sim.kernel.now, seg.route[-1].spec.kind))
            deliver(sim, seg, now)

        def recording_resolve(sim):
            resolve(sim)
            intervals.extend((-1, link.hand_off_before) for link in sim.topo.directed.values()
                             if link.dst == sim.mn and link.hand_off_before)

        def recording_resume(sim):
            link = sim._forward[sim.ha.bound][-1]
            before = link.hand_off_before
            resume(sim)
            if link.hand_off_before != before:
                intervals.append((sim.kernel.now, link.hand_off_before))
                _assert_mn_interval(sim, link.hand_off_before)

        m.setattr(Simulation, "_deliver_data", recording_deliver)
        _record_data_arrivals(m, "MN", lambda entry, made: events.append(entry[0]))
        m.setattr(Simulation, "_resolve_routes", recording_resolve)
        m.setattr(Simulation, "_resume_mn_hand_off", recording_resume)
        sim = Simulation(scenario, mode=mode, trace=trace)
        sim.run()
    return sim, taken, events, intervals


def _assert_mn_intervals(scenario, taken, intervals):
    """A data segment reaching the MN has an arrival event iff it gets there
    outside every MN interval; each interval ends at a scripted detection
    or past the run's end."""
    for now, kernel_now, _ in taken:
        assert (now > kernel_now) == any(start < now < end for start, end in intervals), now
    ends = [h.at for h in scenario.handovers] + [scenario.end + 1]
    assert all(end in ends for _, end in intervals)


def _assert_reference_log(scenario, mode, metrics, log):
    """The untraced run with every shortcut that ended with `metrics` and
    the packet log `log` is the all-events run: equal metrics and packet
    logs."""
    with all_events(), packet_log() as reference_log:
        assert Simulation(scenario, mode=mode).run() == metrics
    assert reference_log == log


def _assert_all_events_run(scenario, mode, metrics, log):
    """`_assert_reference_log`, and the traced run is the all-events run
    too, with equal metrics and trace lines; returns the lines."""
    _assert_reference_log(scenario, mode, metrics, log)
    runs = []
    for reference in (False, True):
        with all_events() if reference else contextlib.nullcontext():
            sim = Simulation(scenario, mode=mode, trace=True)
            runs.append((sim.run(), sim.trace.lines))
    assert runs[0] == runs[1] and runs[0][0] == metrics
    return runs[0][1]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["s1_wlan_to_sat", "s5_roundtrip"])
def test_the_mn_takes_data_without_an_event_in_each_mn_interval(monkeypatch, name, mode):
    # untraced and with no ACK delay, data reaching the MN before the first
    # detection, and after each handover settles until the next detection,
    # goes to the receiver from inside `transmit`, for its arrival time, and
    # has no MN-arrival event. From each detection until the interval after
    # it starts, every data segment has its event. The start takes the
    # arrivals already due over the downlink out of the kernel (the flow
    # keeps it full) and hands them to the receiver there. The run is the
    # all-events run (equal metrics and packet logs). Traced, the receiver
    # takes the same data at the same times, each from its arrival event
    scenario = load_scenario(scenario_path(name))
    with packet_log() as log:
        sim, taken, events, intervals = _mn_run(monkeypatch, scenario, mode)
    detects = [h.at for h in scenario.handovers]
    assert [end for _, end in intervals] == detects + [scenario.end + 1]
    assert intervals[0][0] == -1
    _assert_mn_intervals(scenario, taken, intervals)
    for (start, _), detect, ho in zip(intervals[1:], detects, sim.metrics.handovers):
        t_r3 = ho.timeline["t_r3"]
        kept = [now for now, kernel_now, _ in taken if detect <= now <= start]
        assert detect < t_r3 < start and kept and all(now in events for now in kept)
        # data still due over the downlink when the interval started
        assert any(kernel_now == start < now for now, kernel_now, _ in taken)
    assert sum(now > kernel_now for now, kernel_now, _ in taken) > 0.8 * len(taken)
    if name == "s1_wlan_to_sat":  # nothing else waits: the first data event after t_r3
        t_r3 = sim.metrics.handovers[0].timeline["t_r3"]
        assert intervals[1][0] == min(now for now, kernel_now, _ in taken
                                      if now == kernel_now >= t_r3)
    _assert_reference_log(scenario, mode, sim.metrics, log)
    traced, traced_taken, traced_events, traced_intervals = \
        _mn_run(monkeypatch, scenario, mode, trace=True)
    assert traced.metrics == sim.metrics and traced_intervals == []
    assert all(now == kernel_now and now in traced_events for now, kernel_now, _ in traced_taken)
    assert sorted((now, kind) for now, _, kind in traced_taken) == \
        sorted((now, kind) for now, _, kind in taken)
    # a cut before the first detection ends the hand-off at the run's end
    sim, taken, events, intervals = _mn_run(monkeypatch, cut(scenario, 2_123_457), mode)
    assert max(now for now, _, _ in taken) <= 2_123_457 < min(events)
    # with a flow delaying its ACKs, every data segment has its event
    delayed = replace(scenario, flows=tuple(replace(f, ack_extra_delay=1) for f in scenario.flows))
    sim, taken, events, intervals = _mn_run(monkeypatch, delayed, mode)
    assert taken and all(now == kernel_now for now, kernel_now, _ in taken) and intervals == []
    assert len(events) >= len(taken)


@pytest.mark.parametrize("mode", MODES)
def test_no_mn_interval_starts_while_the_old_downlink_delivers(monkeypatch, mode):
    # S2 leaves the satellite: long after t_r3, data the agent routed onto
    # SAT before t_r1 still reaches the MN over the old downlink, so the
    # WLAN arrivals between keep their events, and the interval starts at
    # the first WLAN arrival after the last SAT one
    scenario = load_scenario(scenario_path("s2_sat_to_wlan"))
    sim, taken, events, intervals = _mn_run(monkeypatch, scenario, mode)
    _assert_mn_intervals(scenario, taken, intervals)
    (_, detect), (start, _) = intervals
    last_sat = max(now for now, _, tag in taken if tag == "SAT")
    t_r3 = sim.metrics.handovers[0].timeline["t_r3"]
    waited = [now for now, kernel_now, tag in taken if tag == "WLAN" and t_r3 < now < last_sat]
    assert all(now in events for now in waited)
    assert len(waited) > 10 or mode == "PROACTIVE"  # which drains SAT with a window of 0
    assert start == min(now for now, _, tag in taken if tag == "WLAN" and now > last_sat)


_S1_PACED = scenario_path("s1_wlan_to_sat").read_text().replace(
    "to = SAT\n", "to = SAT\nack_pacing = 0.1\n", 1)


def test_no_mn_interval_starts_while_acks_are_paced(monkeypatch):
    # PROACTIVE onto the satellite with ACK pacing: the receiver delays its
    # ACKs until the next detection, so no interval starts after this one,
    # and every data segment from the detection on has its event
    scenario = parse_scenario(_S1_PACED, "s1_paced")
    sim, taken, events, intervals = _mn_run(monkeypatch, scenario, "PROACTIVE")
    detect = scenario.handovers[0].at
    assert intervals == [(-1, detect)]
    late = [now for now, kernel_now, _ in taken if now >= detect]
    assert len(late) > 100 and all(now in events for now in late)
    _assert_mn_intervals(scenario, taken, intervals)


def test_paced_acks_end_the_mn_hand_off_for_the_run(monkeypatch):
    # the paced S1 run with a second move onto the satellite at 4.0 s, which
    # aborts at once: pacing ends there, but ACKs paced before it still wait
    # to enter the uplink, which ACKs admitted ahead of time would overtake.
    # Pacing ended the MN hand-off for the run when it began, so no interval
    # starts after the first detection, every data segment from there on
    # keeps its event, and the run is the all-events run, untraced and traced
    scenario = parse_scenario(_S1_PACED + "\n[handover.2]\nat = 4.0\nto = SAT\n", "s1_paced")
    paced, schedule = [], Kernel.schedule

    def recording_schedule(kernel, at, fn, kind="event"):
        if kind == "ack-paced":
            paced.append(at)
        return schedule(kernel, at, fn, kind)

    monkeypatch.setattr(Kernel, "schedule", recording_schedule)
    with packet_log() as log:
        sim, taken, events, intervals = _mn_run(monkeypatch, scenario, "PROACTIVE")
    assert intervals == [(-1, 2_500_000)] and sim.metrics.handovers[1].aborted
    assert max(paced) > 4_000_000
    late = [now for now, kernel_now, _ in taken if now >= 2_500_000]
    assert len(late) == 454 and all(now in events for now in late)
    _assert_mn_intervals(scenario, taken, intervals)
    _assert_all_events_run(scenario, "PROACTIVE", sim.metrics, log)


def test_no_mn_interval_starts_while_a_drain_is_open(monkeypatch):
    # s2_lossy with a second flow: f1's drain ends when its old stream is
    # in, and its window opens on WLAN, but f2's stays open until the drain
    # timeout (its hole never fills). The interval starts only after that:
    # the timeout steers f2 and sends its window update up the uplink, where
    # ACKs admitted ahead of time would be ahead of it, and the packet log
    # would differ from the all-events reference's
    scenario = s2_lossy("\n[flow.f2]\nsrc = CN\ndst = MN\nstart = 0.1\n")
    with packet_log() as log:
        sim, taken, events, intervals = _mn_run(monkeypatch, scenario, "PROACTIVE")
    lines = _assert_all_events_run(scenario, "PROACTIVE", sim.metrics, log)
    done = [int(line.split(" ", 1)[0].replace(".", "")) for line in lines
            if " drain_done " in line]
    (_, detect), (start, _) = intervals
    assert len(done) == 2 and done[-1] - done[0] > 100_000 and done[-1] < start
    assert [now for now, _, _ in taken if done[0] < now < done[-1]]  # f1 took data meanwhile
    _assert_mn_intervals(scenario, taken, intervals)


def test_a_dropped_buack_holds_no_mn_interval_back(monkeypatch):
    # the BUACK of S1 baseline is dropped on its way back to the MN (see
    # test_a_buack_dropped_at_a_skipped_hop_is_lost_when_it_gets_there): the
    # MN never learns its binding (no t_r3), but nothing the MN's hand-off
    # reads waits on that, so the interval starts once the old downlink has
    # delivered its last segment, and the run is the all-events run,
    # untraced and traced
    scenario = _s1_with_sat_gap("2.6", "3.0")
    with packet_log() as log:
        sim, taken, events, intervals = _mn_run(monkeypatch, scenario, "BASELINE")
    detect = scenario.handovers[0].at
    assert "t_r1" in sim.metrics.handovers[0].timeline
    assert "t_r3" not in sim.metrics.handovers[0].timeline
    assert intervals == [(-1, detect), (4_119_108, scenario.end + 1)]
    late = [now for now, kernel_now, _ in taken if now >= detect]
    assert len(late) == 164 and sum(now in events for now in late) == 76
    _assert_mn_intervals(scenario, taken, intervals)
    _assert_all_events_run(scenario, "BASELINE", sim.metrics, log)


def test_a_segment_lost_mid_path_fails_conservation(shipped_scenarios):
    # an arrival handler that swallows one data segment after the detection
    # (before it, data reaches the agent and, untraced, the MN without an
    # arrival event): the segment is neither delivered, dropped nor
    # pending, and the run says so at its end, after handover 1
    scenario = shipped_scenarios["s1_wlan_to_sat"]
    sim = Simulation(scenario, mode="BASELINE")
    swallowed = []

    def lossy_arrival(seg):
        if not swallowed and seg.flags & F_DATA and sim.kernel.now > scenario.handovers[0].at:
            swallowed.append(seg)
            return
        sim._on_arrival(seg)

    for dlink in sim.topo.directed.values():
        dlink.deliver = lossy_arrival
    with pytest.raises(SimError) as raised:
        sim.run()
    assert len(swallowed) == 1
    fm = sim.metrics.flows["f1"]
    assert str(raised.value) == (
        f"flow f1: sent {fm.bytes_sent} != delivered {fm.bytes_delivered} + dropped "
        f"{fm.bytes_dropped} + in-flight {fm.bytes_inflight_end} (residual 1460) "
        "[t=7.600000 event=end-of-run handover=1]")


def test_a_violation_in_an_event_names_the_clock_the_event_and_the_handover(shipped_scenarios):
    # the link that carries the binding update into the agent left unwired:
    # the BU's arrival raises at t_r1, in its `link-rx` event, after handover 1
    scenario = shipped_scenarios["s1_wlan_to_sat"]
    t_r1 = run(scenario, mode="BASELINE")[0].handovers[0].timeline["t_r1"]
    sim = Simulation(scenario, mode="BASELINE")
    sim.topo.directed[("SGW", "HA")].deliver = net._unwired
    with pytest.raises(SimError) as raised:
        sim.run()
    assert type(raised.value) is SimError
    assert str(raised.value) == ("link sgw_ha:SGW->HA not wired (flow _mip seq 0) "
                                 f"[t={fmt_time(t_r1)} event=link-rx handover=1]")


def test_a_protocol_violation_keeps_its_type_and_gets_the_suffix(shipped_scenarios):
    # the first ACK to reach the sender after 0.3 s acknowledges a segment
    # past snd_nxt; slow_start has no handover
    scenario = shipped_scenarios["slow_start"]
    sim = Simulation(scenario, mode="BASELINE")
    forged = []

    def forging_arrival(seg):
        if not forged and seg.flags & F_ACK and sim.kernel.now > 300_000:
            seg.ack = sim.flows[seg.flow_id].sender.snd_nxt + 1
            forged.append((seg.flow_id, seg.ack, sim.kernel.now))
        sim._on_arrival(seg)

    for dlink in sim.topo.directed.values():
        dlink.deliver = forging_arrival
    with pytest.raises(ProtocolViolation) as raised:
        sim.run()
    (fid, ack, at), = forged
    assert str(raised.value) == (f"flow {fid}: ack {ack} beyond snd_nxt {ack - 1} "
                                 f"[t={fmt_time(at)} event=link-rx handover=none]")
    assert raised.traceback[-1].name == "on_ack"  # the bare `raise` keeps the raise site


def test_a_scheduling_error_names_the_event_that_scheduled_into_the_past(shipped_scenarios):
    # the detection's handler schedules an RTO a microsecond before the clock:
    # the message keeps the time asked for and the kind, the suffix the clock
    # and the event that asked
    scenario = shipped_scenarios["s1_wlan_to_sat"]
    sim = Simulation(scenario, mode="PROACTIVE")
    on_handover = sim._on_handover

    def late_handover(hdef):
        on_handover(hdef)
        sim.kernel.schedule(sim.kernel.now - 1, print, "rto")

    sim._on_handover = late_handover
    with pytest.raises(SchedulingError) as raised:
        sim.run()
    assert str(raised.value) == ("event 'rto' scheduled at 2.499999, before the clock "
                                 "[t=2.500000 event=handover handover=1]")


@pytest.mark.parametrize("args, message", [
    (["scenarios/s1_wlan_to_sat.scn", "bogus"],
     "unknown mode 'bogus'; valid modes: baseline, proactive, reset-cwnd"),
    (["scenarios/missing.scn", "baseline"], "scenario file scenarios/missing.scn does not exist"),
    (["scenarios/s1_wlan_to_sat.scn", "baseline", "x"], "seed must be an integer, got 'x'"),
    (["scenarios", "baseline"], "cannot read scenario file scenarios: Is a directory"),
])
def test_show_timeline_rejects_bad_arguments_in_one_line(args, message):
    proc = subprocess.run([sys.executable, "scripts/show_timeline.py", *args], cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and message in proc.stderr


@pytest.mark.parametrize("lines_read, unbuffered", [(1, "1"), (0, "1"), (0, "")])
def test_show_timeline_exits_quietly_when_the_reader_closes_early(lines_read, unbuffered):
    # like `show_timeline.py | head -1`. Unbuffered, each print is a write that can meet
    # the closed pipe; buffered, the only write is the flush at exit. Closing before the
    # first line leaves no race with the writer.
    proc = subprocess.Popen([sys.executable, "scripts/show_timeline.py"], cwd=REPO_ROOT,
                            env={**os.environ, "PYTHONUNBUFFERED": unbuffered}, bufsize=0,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = [proc.stdout.readline() for _ in range(lines_read)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.wait(timeout=60)
    assert first == [b"s1_wlan_to_sat / PROACTIVE / seed 1\n"][:lines_read]
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err.decode()
