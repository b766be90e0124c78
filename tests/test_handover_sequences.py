"""Handover sequences: every handover of a run gets the engine's full
treatment, whatever came before it."""

import re

from hypothesis import given, settings, strategies as st

from conftest import scenario_path
from satwin.runner import run
from satwin.scenario import load_scenario, parse_scenario

MSS = 1460
MODES = ("BASELINE", "PROACTIVE", "RESET_CWND")
S1_TEXT = scenario_path("s1_wlan_to_sat").read_text()
S1_WORLD = S1_TEXT[S1_TEXT.index("[sim]"):S1_TEXT.index("[flow.f1]")]
SAT_LINK = "delay = 0.250\nqueue = 65536"


def _secs(us):
    return f"{us // 1_000_000}.{us % 1_000_000:06d}"


def _assert_every_handover_clean(metrics):
    for fm in metrics.flows.values():
        assert fm.conservation_residual() == 0, fm.flow_id
        assert fm.delivered_inorder > 0, fm.flow_id
    for ho in metrics.handovers:
        assert ho.old_path_enqueues_after_tr1 == 0, ho.name


def test_s5_roundtrip_completes_in_every_mode():
    scenario = load_scenario(scenario_path("s5_roundtrip"))
    for mode in MODES:
        metrics, trace = run(scenario, mode=mode, trace=True)
        assert [ho.aborted for ho in metrics.handovers] == [False, False, False]
        _assert_every_handover_clean(metrics)
        if mode == "PROACTIVE":
            assert metrics.flows["f1"].max_rwnd_increase <= 2 * MSS
            caps = [int(m.group(1)) for m in re.finditer(r"wpolicy MN flow=f1 cap=(\d+)",
                                                          trace.text())]
            # W_REC (63750 B) at the first move onto the satellite; at the
            # second, the 37500 B terrestrial BDP the ramp left in place
            assert caps == [63_750, 0, 37_500]


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
        _assert_every_handover_clean(metrics)


@st.composite
def handover_sequences(draw):
    """S1 world, 1-3 flows, 2-4 alternating WLAN<->SAT handovers at least
    2 s apart, an optional satellite outage, and a mode."""
    count = draw(st.integers(min_value=2, max_value=4))
    at = [draw(st.integers(min_value=1_500_000, max_value=3_000_000))]
    for _ in range(count - 1):
        at.append(at[-1] + draw(st.integers(min_value=2_000_000, max_value=3_500_000)))
    end = at[-1] + 2_500_000
    text = S1_WORLD.replace("end = 7.6", f"end = {_secs(end)}")
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
        direction, to = ("terr_to_sat", "SAT") if i % 2 == 0 else ("sat_to_terr", "WLAN")
        text += f"\n[handover.{i + 1}]\nat = {_secs(t)}\ndirection = {direction}\nto = {to}\n"
    return text, draw(st.sampled_from(MODES))


@settings(max_examples=12, deadline=None)
@given(handover_sequences())
def test_random_handover_sequences_complete_cleanly(case):
    text, mode = case
    metrics, _ = run(parse_scenario(text, "sequence"), mode=mode)
    _assert_every_handover_clean(metrics)
