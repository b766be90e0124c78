import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import scenario_path
from satwin.handover import (
    FlowDemand,
    allocate_flow_windows,
    compute_delta,
    compute_w_rec,
    estimate_bdp,
    plan_sat_to_terr,
    plan_terr_to_sat,
)
from satwin.runner import Simulation
from satwin.scenario import load_scenario
from satwin.tcp import TcpReceiver

MS = 1000
MSS = 1460


class TestEstimateBdp:
    def test_satellite_example(self):
        assert estimate_bdp(125_000, 520 * MS) == 65_000

    def test_wlan_example(self):
        assert estimate_bdp(1_250_000, 20 * MS) == 25_000

    def test_zero_rtt_gives_zero(self):
        # the runner floors the cached estimate at one segment (Simulation._attach)
        assert estimate_bdp(125_000, 0) == 0

    def test_floors_to_whole_byte(self):
        assert estimate_bdp(3, 500_000) == 1  # 1.5 B rounds down

    def test_cache_stores_exact_product(self):
        # S1 measures WLAN (10 Mb/s, 30 ms) at t=0 and the satellite
        # (1 Mb/s, 510 ms) only once it attaches there
        sim = Simulation(load_scenario(scenario_path("s1_wlan_to_sat")), mode="PROACTIVE")
        assert sim.cache == {"WLAN": 37_500}
        sim.run()
        assert sim.cache == {"WLAN": 37_500, "SAT": 63_750}


class TestComputeWRec:
    def test_selects_cached_estimate_below_default(self):
        assert compute_w_rec(32_000, 65_535) == (32_000, False)

    def test_boundary_equality_raises_warning(self):
        assert compute_w_rec(65_000, 65_000) == (65_000, True)

    def test_estimate_above_default_clamps_with_warning(self):
        assert compute_w_rec(90_000, 65_000) == (65_000, True)

    @given(st.integers(min_value=1, max_value=1 << 20), st.integers(min_value=1, max_value=1 << 20))
    def test_chain_property(self, cache_sat, w_default):
        value, violated = compute_w_rec(cache_sat, w_default)
        assert violated == (cache_sat >= w_default)
        if not violated:
            assert w_default > cache_sat >= value


class TestComputeDelta:
    def test_reference_substitution(self):
        assert compute_delta(600 * MS, 550 * MS, 80 * MS) == 285 * MS

    def test_clamps_at_zero(self):
        assert compute_delta(500 * MS, 600 * MS, 400 * MS) == 0

    def test_equality_boundary(self):
        assert compute_delta(500 * MS, 500 * MS, 500 * MS) == 0

    def test_odd_half_sum_stays_below_exact_bound(self):
        # exact bound 100 - 31.5 us; the microsecond result must not exceed it
        assert compute_delta(100, 32, 31) == 68

    @given(st.integers(0, 10**7), st.integers(0, 10**7), st.integers(0, 10**7))
    def test_never_exceeds_bound_and_sits_on_it(self, cn, sat_ha, old_ha):
        delta = compute_delta(cn, sat_ha, old_ha)
        bound = Fraction(cn) - Fraction(sat_ha + old_ha, 2)
        assert delta >= 0
        assert delta <= bound or bound < 0
        if bound >= 0:
            assert bound - delta < 1  # boundary value at 1 us resolution


class TestPlans:
    def test_terr_to_sat_composition(self):
        # (w_rec, delta, violated) from the RTTs MN-sat-CN, MN-sat-HA, MN-old-HA
        rtts = (520 * MS, 550 * MS, 80 * MS)
        assert plan_terr_to_sat(65_000, 131_072, rtts) == (65_000, 205 * MS, False)
        # in a run, W_REC is advertised at detection (t_a0) and the binding
        # update leaves delta later (t_r0): S1 detects at 2.5 s
        sim = Simulation(load_scenario(scenario_path("s1_wlan_to_sat")), mode="PROACTIVE",
                         trace=True)
        timeline = sim.run().handovers[0].timeline
        assert (timeline["t_a0"], timeline["t_r0"]) == (2_500_000, 2_737_000)
        assert ("2.500000 plan MN direction=TERR_TO_SAT w_rec=63750 delta=0.237000 "
                "t_r0=2.737000") in sim.trace.lines

    def test_terr_to_sat_chain_violation_flagged(self):
        rtts = (520 * MS, 550 * MS, 80 * MS)
        w_rec, _, violated = plan_terr_to_sat(65_000, 32_000, rtts)
        assert w_rec == 32_000 and violated

    def test_sat_to_terr_boost_arithmetic(self):
        target = plan_sat_to_terr(cache_sat_bdp=65_000, current_win=65_000,
                                  buffer_capacity=131_072)
        assert target == 130_000
        receiver = TcpReceiver("f", buffer_capacity=131_072, mss=MSS, policy_cap=65_000)
        assert receiver.ramp_step == 2 * MSS
        steps = math.ceil((target - 65_000) / receiver.ramp_step)
        assert steps == 23  # ACKs needed to reach the boosted window

    def test_sat_to_terr_boost_clamped_to_buffer(self):
        assert plan_sat_to_terr(65_000, 120_000, 131_072) == 131_072


def demands(*pairs):
    return [FlowDemand(fid, Fraction(w), m) for fid, w, m in pairs]


class TestAllocation:
    def test_exact_proportionality(self):
        alloc = allocate_flow_windows(demands(("A", 2, 0), ("B", 1, 0)), 60_000)
        assert alloc == {"A": 40_000, "B": 20_000}

    def test_single_flow_gets_everything(self):
        assert allocate_flow_windows(demands(("only", 3, 0)), 50_000) == {"only": 50_000}

    def test_no_flows_get_nothing(self):
        assert allocate_flow_windows([], 50_000) == {}

    def test_thirds_floor_within_one_mss(self):
        alloc = allocate_flow_windows(demands(("A", 1, 0), ("B", 1, 0), ("C", 1, 0)), 10_000)
        assert sum(alloc.values()) <= 10_000
        for share in alloc.values():
            assert abs(share - 3333) < MSS

    def test_remainder_goes_one_mss_at_a_time(self):
        # the floors (33 B each) leave 1 B, less than one byte per flow: it
        # moves only with an MSS that fits in it, and the tie goes to flow A
        thirds = demands(("A", 1, 0), ("B", 1, 0), ("C", 1, 0))
        assert allocate_flow_windows(thirds, 100, mss=1) == {"A": 34, "B": 33, "C": 33}
        assert allocate_flow_windows(thirds, 100, mss=3) == {"A": 33, "B": 33, "C": 33}

    def test_min_share_honored(self):
        alloc = allocate_flow_windows(demands(("A", 1, 9_000), ("B", 9, 0)), 10_000)
        assert alloc["A"] == 9_000
        assert alloc["A"] + alloc["B"] <= 10_000

    def test_min_shares_above_capacity_scale_down(self):
        # 9,000 B of minimums in a 6,000 B budget: each is scaled by 2/3
        # (A to 4,000, B to 2,000); A's weight would give it only 1,500
        alloc = allocate_flow_windows(demands(("A", 1, 6_000), ("B", 3, 3_000)), 6_000)
        assert alloc == {"A": 4_000, "B": 2_000}
        # S3 with both minimums at 40,000 B under the satellite's 63,750 B
        alloc = allocate_flow_windows(demands(("f1", 2, 40_000), ("f2", 1, 40_000)), 63_750)
        assert alloc == {"f1": 31_875, "f2": 31_875}

    @given(
        st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=20 * MSS),
        st.integers(min_value=2, max_value=9),
    )
    def test_scale_invariance(self, weights, capacity, k):
        base = [FlowDemand(f"f{i}", Fraction(w)) for i, w in enumerate(weights)]
        scaled = [FlowDemand(f"f{i}", Fraction(w * k)) for i, w in enumerate(weights)]
        assert allocate_flow_windows(base, capacity) == allocate_flow_windows(scaled, capacity)


def l1_distance(alloc, exact):
    return sum(abs(Fraction(alloc[fid]) - exact[fid]) for fid in alloc)


def assert_no_better_lattice_allocation(alloc, exact, capacity, mss):
    """Exhaustive search (with sound pruning) over all allocations reachable
    from `alloc` by whole-MSS shifts per flow: none may be closer to the
    exact proportional shares in L1 distance while fitting the capacity."""
    flows = sorted(alloc)
    ours = l1_distance(alloc, exact)
    units = capacity // mss + 1

    def search(i, used, partial):
        if partial > ours:  # every further term is non-negative
            return
        if i == len(flows):
            assert partial >= ours, (
                f"better allocation found: L1 {partial} < {ours}"
            )
            return
        fid = flows[i]
        base = alloc[fid]
        for k in range(-(base // mss), units + 1):
            value = base + k * mss
            if used + value > capacity:
                break
            search(i + 1, used + value, partial + abs(Fraction(value) - exact[fid]))

    search(0, 0, Fraction(0))


def test_l1_lattice_oracle_small_cases():
    for weights, capacity in [
        ((2, 1), 60_000 % (20 * MSS)),
        ((1, 1, 1), 10_000),
        ((5, 3, 2), 17_000),
        ((7, 1, 1, 1), 20 * MSS),
    ]:
        flow_demands = [FlowDemand(f"f{i}", Fraction(w)) for i, w in enumerate(weights)]
        alloc = allocate_flow_windows(flow_demands, capacity)
        total = sum(weights)
        exact = {f"f{i}": Fraction(capacity * w, total) for i, w in enumerate(weights)}
        assert sum(alloc.values()) <= capacity
        assert_no_better_lattice_allocation(alloc, exact, capacity, MSS)

