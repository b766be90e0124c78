import pytest

from satwin.kernel import SimError
from satwin.mobility import BindingTable, HomeAgent, make_binding_update
from satwin.net import F_DATA, Segment
from satwin.runner import run
from satwin.scenario import parse_scenario

MS = 1000

# MN reachable over satellite (250 ms) and WLAN (10 ms); registration paths
# SGW->HA 25 ms, WGW->HA 5 ms. BU/BUACK are 60 B control segments.
TOPOLOGY = """
[node.CN]
role = cn
[node.HA]
role = ha
[node.SGW]
role = gateway
kind = SAT
[node.WGW]
role = gateway
kind = WLAN
[node.MN]
role = mn

[link.sat]
a = MN
b = SGW
kind = SAT
bandwidth = 1000000
delay = 0.250
queue = 65536
{sat_extra}
[link.wlan]
a = MN
b = WGW
kind = WLAN
bandwidth = 10000000
delay = 0.010
queue = 65536

[link.sgw_ha]
a = SGW
b = HA
bandwidth = 100000000
delay = 0.025
queue = 65536
{sgw_ha_extra}
[link.sgw_cn]
a = SGW
b = CN
bandwidth = 100000000
delay = 0.030
queue = 65536

[link.wgw_ha]
a = WGW
b = HA
bandwidth = 100000000
delay = 0.005
queue = 65536

[link.wgw_cn]
a = WGW
b = CN
bandwidth = 100000000
delay = 0.005
queue = 65536
"""


def scenario_text(registration="MN", sat_extra="", sgw_ha_extra="", handover_at="1.0"):
    return (
        "[sim]\n"
        "end = 2.0\n"
        "attach = WLAN\n"
        "w_default = 65536\n"
        "sat_default_window = 63750\n"
        f"registration = {registration}\n"
        + TOPOLOGY.format(sat_extra=sat_extra, sgw_ha_extra=sgw_ha_extra)
        + "\n[flow.f1]\nsrc = CN\ndst = MN\nstart = 0.0\nvolume = 1460\n"
        + f"\n[handover.1]\nat = {handover_at}\ndirection = terr_to_sat\nto = SAT\n"
    )


def run_baseline(text):
    metrics, trace = run(parse_scenario(text, "mob"), mode="BASELINE", trace=True)
    return metrics, trace


# 60 B control segments: 480 us on the 125 kB/s satellite link, 5 us
# (4.8 rounded up) on the 12.5 MB/s core links
ONE_WAY_MN_HA_SAT = 250 * MS + 480 + 25 * MS + 5
ONE_WAY_SGW_HA = 25 * MS + 5


def test_bu_over_satellite_defines_tr1():
    metrics, _ = run_baseline(scenario_text())
    timeline = metrics.handovers[0].timeline
    assert timeline["t_r0"] == 1_000_000
    assert timeline["t_r1"] == 1_000_000 + ONE_WAY_MN_HA_SAT
    assert timeline["t_r3"] == timeline["t_r1"] + ONE_WAY_MN_HA_SAT


def test_proxy_registration_uses_gateway_to_agent_path():
    metrics, _ = run_baseline(scenario_text(registration="PROXY"))
    timeline = metrics.handovers[0].timeline
    assert timeline["t_r1"] == 1_000_000 + ONE_WAY_SGW_HA
    assert timeline["t_r3"] == timeline["t_r1"] + ONE_WAY_SGW_HA


def test_bu_lost_in_coverage_gap_leaves_binding_unchanged():
    # satellite radio is up at execution, but the gateway-to-agent link is
    # in an outage: the BU drops and the agent never redirects
    text = scenario_text(sgw_ha_extra="availability = 0.0:0.5\n")
    metrics, trace = run_baseline(text)
    timeline = metrics.handovers[0].timeline
    assert "t_r0" in timeline  # the registration was attempted ...
    assert "t_r1" not in timeline and "t_r3" not in timeline  # ... and lost
    assert not metrics.handovers[0].aborted
    assert any("bu_lost" in line for line in trace.lines)
    assert any("drop" in line and "_mip" in line for line in trace.lines)


def test_handover_aborts_when_target_radio_down():
    text = scenario_text(sat_extra="availability = 0.0:0.5\n")
    metrics, _ = run_baseline(text)
    assert metrics.handovers[0].aborted
    assert "t_r1" not in metrics.handovers[0].timeline


class TestBindingTable:
    def test_first_binding_becomes_active(self):
        table = BindingTable()
        table.register("mn", "WLAN", 10)
        assert table.entries["mn"][-1].attachment == "WLAN"

    def test_multi_binding_retains_older_entries(self):
        table = BindingTable()
        table.register("mn", "WLAN", 10)
        table.register("mn", "SAT", 20)
        assert [b.attachment for b in table.entries["mn"]] == ["WLAN", "SAT"]

    def test_registration_back_in_time_is_sim_error(self):
        table = BindingTable()
        table.register("mn", "WLAN", 2_000_000)
        with pytest.raises(SimError) as raised:
            table.register("mn", "SAT", 1_500_000)
        assert str(raised.value) == ("binding of mn registered at 1.500000, before the one in "
                                     "force (registered at 2.000000)")


def test_home_agent_routes_by_the_newest_binding():
    # every registration happens at the time it is processed, so the
    # newest binding is the one in force; the table keeps the older ones
    agent = HomeAgent("mn")
    agent.register("SAT", 10)
    assert agent.route_attachment() == agent.bound == "SAT"
    agent.register("WLAN", 20)
    assert agent.route_attachment() == agent.bound == "WLAN"
    assert [b.attachment for b in agent.table.entries["mn"]] == ["SAT", "WLAN"]


def test_home_agent_acks_binding_update_on_arrival_path():
    agent = HomeAgent("mn")
    bu = make_binding_update("SAT", 7)
    buack = agent.handle_binding_update(bu, 9)
    assert agent.table.entries["mn"][-1].registered_at == 9
    assert buack.path_tag == "SAT"


def test_home_agent_ignores_a_binding_update_sent_before_the_one_in_force():
    # RFC 6275 9.5.1: the send time orders binding updates, not their arrival
    agent = HomeAgent("mn")
    assert agent.handle_binding_update(make_binding_update("WLAN", 10), 12) is not None
    assert agent.handle_binding_update(make_binding_update("SAT", 5), 20) is None
    assert [b.attachment for b in agent.table.entries["mn"]] == ["WLAN"]
    assert agent.table.entries["mn"][-1].registered_at == 12


def test_home_agent_rejects_a_segment_that_is_not_a_binding_update():
    agent = HomeAgent("mn")
    with pytest.raises(SimError) as raised:
        agent.handle_binding_update(Segment(flow_id="f1", flags=F_DATA), 2_500_000)
    assert str(raised.value) == "home agent: binding update expected, got flags 1 (flow f1)"
    assert agent.table.entries == {}


def test_registration_round_trip_matches_path_rtt_oracle():
    from satwin.net import path_rtt
    from satwin.runner import Simulation

    sim = Simulation(parse_scenario(scenario_text(), "mob"), mode="BASELINE")
    metrics = sim.run()
    timeline = metrics.handovers[0].timeline
    oracle = path_rtt(sim.topo.route_via_access("MN", "HA", "SAT"), probe_size=60)
    assert timeline["t_r3"] - timeline["t_r0"] == oracle
