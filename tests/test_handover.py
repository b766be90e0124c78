import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from satwin.errors import ConfigError
from satwin.handover import (
    FlowDemand,
    PathEstimateCache,
    allocate_flow_windows,
    compute_delta,
    compute_w_rec,
    estimate_bdp,
    plan_sat_to_terr,
    plan_terr_to_sat,
    set_ack_pacing,
)
from satwin.net import RttTable
from satwin.tcp import TcpReceiver

MS = 1000
MSS = 1460


class TestEstimateBdp:
    def test_satellite_example(self):
        assert estimate_bdp(125_000, 520 * MS) == 65_000

    def test_wlan_example(self):
        assert estimate_bdp(1_250_000, 20 * MS) == 25_000

    def test_zero_rtt_rejected(self):
        with pytest.raises(ConfigError):
            estimate_bdp(125_000, 0)

    def test_floors_to_whole_byte(self):
        assert estimate_bdp(3, 500_000) == 1  # 1.5 B rounds down

    def test_cache_stores_exact_product(self):
        cache = PathEstimateCache()
        est = cache.observe("SAT", 125_000, 520 * MS)
        assert (est.bdp, est.rtt) == (65_000, 520 * MS)
        assert cache.get("SAT") is est
        assert cache.get("WLAN") is None


class TestComputeWRec:
    def test_selects_cached_estimate_below_default(self):
        choice = compute_w_rec(32_000, 65_535)
        assert choice.value == 32_000 and not choice.chain_violation

    def test_boundary_equality_raises_warning(self):
        choice = compute_w_rec(65_000, 65_000)
        assert choice.value == 65_000 and choice.chain_violation

    def test_estimate_above_default_clamps_with_warning(self):
        choice = compute_w_rec(90_000, 65_000)
        assert choice.value == 65_000 and choice.chain_violation

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
        rtts = RttTable(520 * MS, 550 * MS, 80 * MS)
        plan = plan_terr_to_sat(65_000, 131_072, rtts, t_detect=10_000_000)
        assert plan.w_rec == 65_000
        assert plan.delta == 205 * MS
        assert plan.t_a0 == 10_000_000
        assert plan.t_r0 == 10_205_000
        assert not plan.chain_violation

    def test_terr_to_sat_chain_violation_flagged(self):
        rtts = RttTable(520 * MS, 550 * MS, 80 * MS)
        plan = plan_terr_to_sat(65_000, 32_000, rtts, t_detect=0)
        assert plan.w_rec == 32_000 and plan.chain_violation

    def test_terr_to_sat_fallback_without_cache(self):
        rtts = RttTable(520 * MS, 550 * MS, 80 * MS)
        plan = plan_terr_to_sat(None, 131_072, rtts, 0, fallback_sat_window=63_750)
        assert plan.w_rec == 63_750

    def test_terr_to_sat_no_cache_no_fallback_is_config_error(self):
        rtts = RttTable(520 * MS, 550 * MS, 80 * MS)
        with pytest.raises(ConfigError):
            plan_terr_to_sat(None, 131_072, rtts, 0)

    def test_sat_to_terr_boost_arithmetic(self):
        plan = plan_sat_to_terr(
            cache_sat_bdp=65_000, current_win=65_000, mss=MSS,
            buffer_capacity=131_072,
        )
        assert plan.boost_target == 130_000
        assert plan.boost_step == 2 * MSS
        steps = math.ceil((plan.boost_target - 65_000) / plan.boost_step)
        assert steps == 23  # ACKs needed to reach the boosted window

    def test_sat_to_terr_boost_clamped_to_buffer(self):
        plan = plan_sat_to_terr(65_000, 120_000, MSS, 131_072)
        assert plan.boost_target == 131_072


def demands(*pairs):
    return [FlowDemand(fid, Fraction(w), m) for fid, w, m in pairs]


class TestAllocation:
    def test_exact_proportionality(self):
        alloc = allocate_flow_windows(demands(("A", 2, 0), ("B", 1, 0)), 60_000)
        assert alloc == {"A": 40_000, "B": 20_000}

    def test_single_flow_gets_everything(self):
        assert allocate_flow_windows(demands(("only", 3, 0)), 50_000) == {"only": 50_000}

    def test_thirds_floor_within_one_mss(self):
        alloc = allocate_flow_windows(demands(("A", 1, 0), ("B", 1, 0), ("C", 1, 0)), 10_000)
        assert sum(alloc.values()) <= 10_000
        for share in alloc.values():
            assert abs(share - 3333) < MSS

    def test_min_share_honored(self):
        alloc = allocate_flow_windows(demands(("A", 1, 9_000), ("B", 9, 0)), 10_000)
        assert alloc["A"] == 9_000
        assert alloc["A"] + alloc["B"] <= 10_000

    def test_capacity_below_min_shares_rejected(self):
        with pytest.raises(ConfigError):
            allocate_flow_windows(demands(("A", 1, 6_000), ("B", 1, 6_000)), 10_000)

    def test_duplicate_flow_ids_rejected(self):
        with pytest.raises(ConfigError):
            allocate_flow_windows(demands(("A", 1, 0), ("A", 2, 0)), 10_000)

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


def test_set_ack_pacing():
    receiver = TcpReceiver("f", buffer_capacity=64_000, mss=MSS)
    set_ack_pacing(receiver, 50_000)
    assert receiver.ack_delay == 50_000
    set_ack_pacing(receiver, 0)
    assert receiver.ack_delay == 0
    with pytest.raises(ConfigError):
        set_ack_pacing(receiver, -1)
