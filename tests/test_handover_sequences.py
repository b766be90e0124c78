"""Handover sequences: every handover of a run gets the engine's full
treatment, whatever came before it."""

import os
import re
import subprocess
import sys
from collections import Counter

from hypothesis import given, settings, strategies as st

from conftest import REPO_ROOT, scenario_path
from satwin.mobility import HomeAgent
from satwin.runner import Simulation, run
from satwin.scenario import flow_buffer, load_scenario, parse_scenario

MSS = 1460
MODES = ("BASELINE", "PROACTIVE", "RESET_CWND")
S1_TEXT = scenario_path("s1_wlan_to_sat").read_text()
S2_TEXT = scenario_path("s2_sat_to_wlan").read_text()
S4_TEXT = scenario_path("s4_three_networks").read_text()
# the worlds of S1 (WLAN, SAT) and S4 (GPRS, WLAN, SAT): everything up to the flows
WORLDS = {text[text.index("[sim]"):text.index("[flow.f1]")]: kinds
          for text, kinds in ((S1_TEXT, ("WLAN", "SAT")), (S4_TEXT, ("GPRS", "WLAN", "SAT")))}
SAT_LINK = "delay = 0.250\nqueue = 65536"
# S1 plus a move back to WLAN detected 100 ms after the move onto SAT
S1_BACK_AT_2_6 = S1_TEXT + "\n[handover.2]\nat = 2.6\ndirection = sat_to_terr\nto = WLAN\n"
# S2 plus a detection of WLAN while the drain of the move onto it is open
S2_WLAN_AGAIN = S2_TEXT + "\n[handover.2]\nat = 4.6\ndirection = sat_to_terr\nto = WLAN\n"


def _secs(us):
    return f"{us // 1_000_000}.{us % 1_000_000:06d}"


def _us(stamp):
    return int(stamp.replace(".", ""))


def _assert_every_handover_clean(metrics, lines):
    for fm in metrics.flows.values():
        assert fm.conservation_residual() == 0, fm.flow_id
        assert fm.delivered_inorder > 0, fm.flow_id
    for ho in metrics.handovers:
        assert ho.old_path_enqueues_after_tr1 == 0, ho.name
    _assert_registration_once(metrics, lines)


def _assert_registration_once(metrics, lines):
    """From the trace, each handover's registration runs at most once and
    in order: one BU per switch (t_r0), at most one t_r1, t_r3 and bu_lost
    each, and a confirmed (t_r3) registration was registered (t_r1) and
    never lost."""
    stamped = Counter(label for ho in metrics.handovers for label in ho.timeline)
    kinds = Counter(line.split(" ", 2)[1] for line in lines)
    traced = Counter(re.search(r" label=(\w+) ", line).group(1)
                     for line in lines if " timeline " in line)
    assert kinds["bu_send"] == stamped["t_r0"]
    assert (traced["t_r1"], traced["t_r3"]) == (stamped["t_r1"], stamped["t_r3"])
    lost = Counter(line.rsplit("handover=", 1)[1] for line in lines if " bu_lost " in line)
    assert max(lost.values(), default=0) <= 1, lost
    for ho in metrics.handovers:
        if "t_r3" in ho.timeline:
            assert "t_r1" in ho.timeline and ho.name not in lost, ho.name


def _assert_one_live_handover(sim):
    """From the trace: a drain's zero-window hold, which also suppresses
    duplicate ACKs until its `drain_done`, ends by the next handover's
    detection; a ramp never aims above the BDP of the network attached when
    it starts; and from a `drain_done` until the flow reaches its next cap,
    each ACK opens the window by at most two segments. At the end, every
    cap that is set is at most the flow's resting cap on the attached
    network, and so is the target of a ramp still running."""
    held = {}  # flow -> time by which its hold must have ended (None: no detection yet)
    opening = {}  # flow -> the cap it is reopening toward (None: not set yet)
    rwnd = {}  # flow -> last advertised window
    attached = None
    for line in sim.trace.lines:
        stamp, kind, _, *fields = line.split(" ")
        now, kv = _us(stamp), dict(f.split("=", 1) for f in fields)
        for flow, deadline in held.items():
            assert deadline is None or now <= deadline, (flow, line)
        if kind == "attach":
            attached = kv["network"]
        elif kind == "wpolicy" and kv["cap"] == "0":
            held[kv["flow"]] = None
        elif kind == "drain_done":
            del held[kv["flow"]]
            opening[kv["flow"]] = None
        elif kind == "handover_detect":
            held = {flow: now if deadline is None else deadline for flow, deadline in held.items()}
        elif kind == "ramp":
            assert int(kv["target"]) <= sim.cache[attached], line
        if kind in ("ramp", "wpolicy") and kv["flow"] in opening:
            opening[kv["flow"]] = int(kv.get("target", kv.get("cap")))
        elif kind == "ack_tx":
            flow, window = kv["flow"], int(kv["rwnd"])
            if flow in opening:
                assert window - rwnd[flow] <= 2 * MSS, line
                if opening[flow] is not None and window >= opening[flow]:
                    del opening[flow]
            rwnd[flow] = window
    bdp = sim.cache[attached]
    for rt in sim.flows.values():
        receiver = rt.receiver
        rest = min(receiver.buffer_capacity, bdp)
        cap = receiver.policy_cap
        assert cap is None or cap <= rest, (rt.spec.name, cap)
        ramp = receiver.ramp_target or 0
        assert ramp <= rest, (rt.spec.name, ramp)


def test_s5_roundtrip_completes_in_every_mode():
    scenario = load_scenario(scenario_path("s5_roundtrip"))
    for mode in MODES:
        metrics, trace = run(scenario, mode=mode, trace=True)
        assert [ho.aborted for ho in metrics.handovers] == [False, False, False]
        _assert_every_handover_clean(metrics, trace.lines)
        if mode == "PROACTIVE":
            assert metrics.flows["f1"].max_rwnd_increase <= 2 * MSS
            caps = [int(m.group(1)) for m in re.finditer(r"wpolicy MN flow=f1 cap=(\d+)",
                                                          trace.text())]
            # W_REC (63750 B) at the first move onto the satellite; at the
            # second, the 37500 B terrestrial BDP the ramp left in place
            assert caps == [63_750, 0, 37_500]


def test_w_rec_above_the_satellite_bdp_comes_down_at_attach():
    # a fallback window of 100,000 B (nothing cached yet) is W_REC; once
    # the MN attaches at t_r0 the measured satellite BDP, 63,750 B, caps
    # the flow, and the satellite queue drops nothing
    text = S1_TEXT.replace("sat_default_window = 63750", "sat_default_window = 100000")
    sim = Simulation(parse_scenario(text, "s1_wide_fallback"), mode="PROACTIVE", trace=True)
    metrics = sim.run()
    caps = [l for l in sim.trace.lines if " wpolicy " in l]
    assert caps == ["2.500000 wpolicy MN flow=f1 cap=100000",
                    "2.737000 wpolicy MN flow=f1 cap=63750"]
    assert metrics.drops == []
    assert metrics.flows["f1"].retransmits == 0
    _assert_every_handover_clean(metrics, sim.trace.lines)
    _assert_one_live_handover(sim)


def test_handover_to_the_current_network_is_aborted():
    # the satellite is down when S1's handover would execute, so the MN
    # stays on WLAN; the scripted move back to WLAN is then a no-op
    text = S1_TEXT.replace("end = 7.6", "end = 5.0")
    text = text.replace(SAT_LINK, SAT_LINK + "\navailability = 0.0:2.0,3.5:5.0")
    text += "\n[handover.2]\nat = 4.5\ndirection = sat_to_terr\nto = WLAN\n"
    scenario = parse_scenario(text, "s1_back_to_wlan")
    for mode in MODES:
        metrics, trace = run(scenario, mode=mode, trace=True)
        assert [ho.aborted for ho in metrics.handovers] == [True, True], mode
        assert "4.500000 handover_abort MN handover=2" in trace.lines, mode
        assert [l for l in trace.lines if " attach " in l] == ["0.000000 attach MN network=WLAN"]
        _assert_every_handover_clean(metrics, trace.lines)


def test_a_newer_detection_supersedes_an_open_drain():
    # S2 proactive: the drain of the move onto WLAN (from 4.5 s) is still
    # open when the move back onto the satellite is detected
    text = S2_TEXT + "\n[handover.2]\nat = 4.6\ndirection = terr_to_sat\nto = SAT\n"
    sim = Simulation(parse_scenario(text, "s2_back_to_sat"), mode="PROACTIVE", trace=True)
    metrics = sim.run()
    lines = sim.trace.lines
    assert [ho.drain_timed_out for ho in metrics.handovers] == [False, False]
    assert "4.600000 drain_done MN flow=f1 timeout=superseded" in lines
    # the hold stays at 0, and W_REC, at most WLAN's resting 37,500 B for a
    # capped flow, opens it two segments per ACK
    assert "4.600000 ack_tx MN flow=f1 ack=286160 rwnd=2920 flags=18" in lines
    assert "4.600000 ramp MN flow=f1 target=37500 step=2920" in lines
    assert not [l for l in lines if " wpolicy " in l and _us(l.split(" ")[0]) > 4_500_000]
    assert metrics.flows["f1"].max_rwnd_increase == 2 * MSS
    assert sim.flows["f1"].receiver.policy_cap == 37_500
    assert sim.flows["f1"].receiver.ramp_target == 37_500  # W_REC's from 4.6 s, not the drain's
    _assert_one_live_handover(sim)


def test_an_abort_after_a_superseded_drain_ramps_to_rest():
    # the detection of WLAN at 4.6 s aborts (the MN is on WLAN since 4.5 s)
    # and retires the drain; the window opens from 0 to WLAN's resting cap
    sim = Simulation(parse_scenario(S2_WLAN_AGAIN, "s2_wlan_again"), mode="PROACTIVE",
                     trace=True)
    metrics = sim.run()
    assert [ho.aborted for ho in metrics.handovers] == [False, True]
    assert metrics.flows["f1"].max_rwnd_increase <= 2 * MSS
    assert sim.flows["f1"].receiver.policy_cap == 37_500
    assert "4.600000 ramp MN flow=f1 target=37500 step=2920" in sim.trace.lines
    # derived from the move, whatever the file says
    assert [ho.direction for ho in metrics.handovers] == ["sat_to_terr", "terr_to_terr"]
    _assert_every_handover_clean(metrics, sim.trace.lines)
    _assert_one_live_handover(sim)


def test_a_retired_boost_comes_to_rest():
    # S2 proactive boosts from 4.0 s toward 127,500 B for a switch at 4.5 s;
    # a detection at 4.2 s (of the satellite, so it aborts) cancels the
    # switch, and the window drops from the 110,470 B the boost had reached
    # back to the satellite's resting 63,750 B
    text = S2_TEXT + "\n[handover.2]\nat = 4.2\ndirection = terr_to_sat\nto = SAT\n"
    sim = Simulation(parse_scenario(text, "s2_boost_retired"), mode="PROACTIVE", trace=True)
    metrics = sim.run()
    receiver = sim.flows["f1"].receiver
    assert [ho.aborted for ho in metrics.handovers] == [False, True]
    assert [l for l in sim.trace.lines if " attach " in l] == ["0.000000 attach MN network=SAT"]
    assert "4.199188 ack_tx MN flow=f1 ack=237980 rwnd=110470 flags=2" in sim.trace.lines
    assert "4.200000 ack_tx MN flow=f1 ack=237980 rwnd=63750 flags=18" in sim.trace.lines
    assert (receiver.policy_cap, receiver.ramp_target) == (63_750, None)
    _assert_every_handover_clean(metrics, sim.trace.lines)
    _assert_one_live_handover(sim)


def test_a_boost_retired_before_its_first_ack_comes_to_rest():
    # a second detection at 4.0 s, of the satellite, retires S2's boost
    # before any ACK has moved the cap off the satellite's resting 63,750 B;
    # the boost's ramp toward 127,500 B must stop there all the same
    text = S2_TEXT + "\n[handover.2]\nat = 4.0\nto = SAT\n"
    sim = Simulation(parse_scenario(text, "s2_boost_retired_at_once"), mode="PROACTIVE",
                     trace=True)
    metrics = sim.run()
    receiver = sim.flows["f1"].receiver
    assert [ho.aborted for ho in metrics.handovers] == [False, True]
    assert (receiver.policy_cap, receiver.ramp_target) == (63_750, None)
    assert metrics.flows["f1"].max_rwnd_increase == 0
    _assert_every_handover_clean(metrics, sim.trace.lines)
    _assert_one_live_handover(sim)


def test_a_move_between_terrestrial_networks_leaves_the_window_alone():
    # S4 moved to GPRS -> WLAN: neither side is the satellite, so proactive
    # runs the plain switch, whatever `direction` says, and the flow,
    # uncapped on GPRS, stays uncapped
    text = S4_TEXT.replace("terr_to_sat\nto = SAT", "sat_to_terr\nto = WLAN")
    scenario = parse_scenario(text, "s4_gprs_to_wlan")
    sim = Simulation(scenario, mode="PROACTIVE", trace=True)
    metrics = sim.run()
    assert not [l for l in sim.trace.lines
                if l.split(" ")[1] in ("boost", "wpolicy", "drain_done", "ramp")]
    assert "3.000000 handover_detect MN direction=terr_to_terr to=WLAN mode=PROACTIVE" \
        in sim.trace.lines
    baseline, _ = run(scenario, mode="BASELINE")
    assert [dict(r, mode="") for r in metrics.csv_rows()] == \
        [dict(r, mode="") for r in baseline.csv_rows()]
    _assert_every_handover_clean(metrics, sim.trace.lines)
    _assert_one_live_handover(sim)


def test_a_switch_between_terrestrial_networks_rests_a_capped_flow():
    # S4 started on WLAN: the move onto SAT caps the flow at W_REC (its
    # 16,384 B buffer) and is retired before t_r0 by a move to GPRS, where
    # the flow rests at the GPRS BDP
    text = S4_TEXT.replace("attach = GPRS", "attach = WLAN")
    text += "\n[handover.2]\nat = 3.1\nto = GPRS\n"
    sim = Simulation(parse_scenario(text, "s4_wlan_to_gprs"), mode="PROACTIVE", trace=True)
    metrics = sim.run()
    assert "3.100000 wpolicy MN flow=f1 cap=3300" in sim.trace.lines
    assert sim.flows["f1"].receiver.policy_cap == 3_300
    _assert_every_handover_clean(metrics, sim.trace.lines)
    _assert_one_live_handover(sim)


def test_no_window_cap_or_target_exceeds_the_receive_buffer():
    # the rule, from the trace: whatever a mode steers a window to, a cap
    # set at once (wpolicy), a ramp's target or a boost's, is at most the
    # flow's receive buffer. S2 with a 30,000 B buffer, below WLAN's 37,500 B
    # resting window, puts the bound to work on the boost and the reopening ramp
    scenario = parse_scenario(S2_TEXT.replace("w_default = 131072", "w_default = 30000"),
                              "s2_small_buffer")
    buffers = {f.name: flow_buffer(scenario, f) for f in scenario.flows}
    steered = Counter()
    for mode in MODES:
        _, trace = run(scenario, mode=mode, trace=True)
        for line in trace.lines:
            found = re.search(r" (wpolicy|ramp|boost) MN flow=(\S+) (?:cap|target)=(\d+)", line)
            if found:
                steered[found[1]] += 1
                assert int(found[3]) <= buffers[found[2]], (mode, line)
    assert set(steered) == {"wpolicy", "ramp", "boost"}


def test_window_steering_is_the_same_under_python_O(tmp_path):
    path = tmp_path / "s2_wlan_again.scn"
    path.write_text(S2_WLAN_AGAIN)
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    outputs = []
    for flags in ([], ["-O"]):
        out = tmp_path / ("O" if flags else "plain")
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "satwin", "run", "--scenario", str(path),
             "--mode", "proactive", "--metrics", str(out / "m.csv"),
             "--trace", str(out / "t.log")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(((out / "m.csv").read_bytes(), (out / "t.log").read_bytes()))
    assert outputs[0] == outputs[1]
    assert b"4.600000 ramp MN flow=f1 target=37500 step=2920" in outputs[0][1]


def test_a_stale_binding_update_leaves_the_newer_binding_in_force():
    # handover 2's BU (via WLAN) registers at 2.615 s, before handover 1's
    # BU (via SAT, sent at 2.5 s) reaches the agent at 2.758 s
    scenario = parse_scenario(S1_BACK_AT_2_6, "s1_back_at_2_6")
    for mode in ("BASELINE", "RESET_CWND"):
        metrics, trace = run(scenario, mode=mode, trace=True)
        assert "2.758485 bu_lost MN handover=1" in trace.lines, mode
        assert not [l for l in trace.lines if "buack_recv MN network=SAT" in l], mode
        assert [ho.aborted for ho in metrics.handovers] == [False, False], mode
        _assert_every_handover_clean(metrics, trace.lines)


def test_old_path_count_is_taken_where_the_agent_routes():
    # an agent without the stale-BU rule lets handover 1's late BU point the
    # binding back at SAT from 2.758 s: every segment then routed there counts
    # for handover 2, the 192 that SAT's access queue accepted and the 26
    # that were dropped before it did
    sim = Simulation(parse_scenario(S1_BACK_AT_2_6, "s1_back_at_2_6"), mode="BASELINE")
    agent = sim.ha

    def register_every_bu(seg, now):
        agent.bu_sent_at = 0
        return HomeAgent.handle_binding_update(agent, seg, now)

    agent.handle_binding_update = register_every_bu
    metrics = sim.run()
    assert [ho.old_path_enqueues_after_tr1 for ho in metrics.handovers] == [0, 192 + 26]
    assert len([d for d in metrics.drops if d.kind == "SAT" and d.time >= 2_758_485]) == 26


def test_show_timeline_lists_a_stale_registration(tmp_path):
    path = tmp_path / "s1_back_at_2_6.scn"
    path.write_text(S1_BACK_AT_2_6)
    proc = subprocess.run([sys.executable, "scripts/show_timeline.py", str(path), "baseline"],
                          cwd=REPO_ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "  2.758485 bu_lost MN handover=1\n" in proc.stdout


def test_a_retired_move_never_executes():
    # proactive: the move onto SAT waits for t_r0 (2.737 s); the move back
    # to WLAN at 2.6 s retires it, so the MN never leaves WLAN, and the
    # advertised W_REC (63,750 B) drops to WLAN's resting 37,500 B
    sim = Simulation(parse_scenario(S1_BACK_AT_2_6, "s1_back_at_2_6"), mode="PROACTIVE",
                     trace=True)
    metrics = sim.run()
    assert [l for l in sim.trace.lines if " attach " in l] == ["0.000000 attach MN network=WLAN"]
    assert [ho.aborted for ho in metrics.handovers] == [False, True]
    assert "t_r0" not in metrics.handovers[0].timeline
    assert "2.600000 wpolicy MN flow=f1 cap=37500" in sim.trace.lines
    assert sim.flows["f1"].receiver.policy_cap == 37_500
    _assert_every_handover_clean(metrics, sim.trace.lines)
    _assert_one_live_handover(sim)


@st.composite
def handover_sequences(draw):
    """The S1 or S4 world with a fallback satellite window from a tenth to
    twice the satellite BDP, 1-3 flows, 2-4 handovers to any of its
    networks 50 ms to 3.5 s apart (so a newer one can find an older one's
    switch pending or its drain open), an optional satellite outage, and a
    mode."""
    world = draw(st.sampled_from(sorted(WORLDS)))
    count = draw(st.integers(min_value=2, max_value=4))
    at = [draw(st.integers(min_value=1_500_000, max_value=3_000_000))]
    for _ in range(count - 1):
        at.append(at[-1] + draw(st.integers(min_value=50_000, max_value=3_500_000)))
    end = at[-1] + 2_500_000
    text = re.sub(r"\nend = \S+", f"\nend = {_secs(end)}", world, count=1)
    fallback = draw(st.integers(min_value=6_375, max_value=127_500))
    text = text.replace("sat_default_window = 63750", f"sat_default_window = {fallback}")
    if draw(st.booleans()):
        gap_start = draw(st.integers(min_value=0, max_value=end - 610_000))
        gap_end = gap_start + draw(st.integers(min_value=10_000, max_value=600_000))
        windows = [f"0.0:{_secs(gap_start)}"] if gap_start else []
        windows.append(f"{_secs(gap_end)}:{_secs(end)}")
        text = text.replace(SAT_LINK, SAT_LINK + "\navailability = " + ",".join(windows))
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        start = draw(st.integers(min_value=50_000, max_value=250_000))
        weight = draw(st.integers(min_value=1, max_value=3))
        text += (f"\n[flow.f{i + 1}]\nsrc = CN\ndst = MN\nstart = {_secs(start)}\n"
                 f"weight = {weight}\n")
    for i, t in enumerate(at):
        to = draw(st.sampled_from(WORLDS[world]))
        text += f"\n[handover.{i + 1}]\nat = {_secs(t)}\nto = {to}\n"
    return text, draw(st.sampled_from(MODES))


@settings(max_examples=12, deadline=None)
@given(handover_sequences())
def test_random_handover_sequences_complete_cleanly(case):
    text, mode = case
    sim = Simulation(parse_scenario(text, "sequence"), mode=mode, trace=True)
    metrics = sim.run()
    _assert_every_handover_clean(metrics, sim.trace.lines)
    _assert_one_live_handover(sim)
