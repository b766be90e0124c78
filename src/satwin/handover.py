"""Proactive handover policy: window selection, registration delay, plans.

Two procedures are computed here and executed by the runner:

* terrestrial -> satellite: advertise a reduced window W_REC sized from the
  cached satellite bandwidth-delay product, then hold the registration back
  for a delay chosen so the last full-window segment clears the anchor
  before redirection flips.

* satellite -> terrestrial: pre-grow the advertised window by the satellite
  BDP (two segments per ACK, self-clocked), close the window to zero at
  execution while duplicate ACKs are suppressed and the sender is dropped
  into congestion avoidance, hold until the satellite pipe has drained,
  then reopen it two segments per ACK up to its resting window.

Multi-flow runs share the window budget proportionally to per-flow demand
weights, within minimum shares.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .kernel import SEC, SimError

CHAIN_VIOLATION = "CHAIN_VIOLATION"


def estimate_bdp(bandwidth: int, rtt: int) -> int:
    """Bytes in flight that fill a path: bandwidth (B/s) x rtt (us), floored
    to a whole byte."""
    return bandwidth * rtt // SEC


def compute_w_rec(cache_sat: int, w_default: int) -> tuple[int, bool]:
    """Reduced window to advertise before moving onto the satellite, and
    whether the selection chain is violated.

    The selection chain requires w_default > cache_sat >= W_REC; when the
    cached satellite estimate is not strictly below the default window the
    chain cannot hold (the full-rate sender would flood the slow network),
    which is reported as a warning, not a failure.
    """
    return min(cache_sat, w_default), cache_sat >= w_default


def compute_delta(rtt_mn_sat_cn: int, rtt_mn_sat_ha: int, rtt_mn_old_ha: int) -> int:
    """Registration hold-back: the boundary value of
    delta <= RTT_sat_cn - (RTT_sat_ha + RTT_old_ha)/2, clamped at zero.

    The half-sum is rounded up so the microsecond result never exceeds the
    exact bound.
    """
    bound = rtt_mn_sat_cn - (rtt_mn_sat_ha + rtt_mn_old_ha + 1) // 2
    return max(0, bound)


def plan_terr_to_sat(cache_sat: int, w_default: int,
                     rtts: tuple[int, int, int]) -> tuple[int, int, bool]:
    """Terrestrial->satellite plan `(w_rec, delta, violated)`: W_REC advertised
    at detection, the binding update held back by delta. `cache_sat` is the
    cached satellite BDP, or the configured sat_default_window when nothing
    is cached yet; `rtts` are compute_delta's terms (net.rtt_table)."""
    w_rec, violated = compute_w_rec(cache_sat, w_default)
    return w_rec, compute_delta(*rtts), violated


def plan_sat_to_terr(cache_sat_bdp: int, current_win: int, buffer_capacity: int) -> int:
    """Satellite->terrestrial boost target: current + satellite BDP, within
    the buffer (the ramp toward it and the zero-window drain at execution
    follow)."""
    return min(current_win + cache_sat_bdp, buffer_capacity)


@dataclass(frozen=True)
class FlowDemand:
    flow_id: str
    requirement: Fraction
    min_share: int = 0


def allocate_flow_windows(demands: list[FlowDemand], capacity: int, mss: int = 1460) -> dict[str, int]:
    """Split a window budget across flows proportionally to their weights.

    Each flow gets max(min_share, floor(capacity * w_i / sum(w))); leftover
    bytes are handed out one MSS at a time in descending fractional
    remainder (ties by ascending flow id). The floors leave less than one
    byte per flow sharing the budget, so that loop moves bytes only when
    `mss` is below the number of those flows. The result never exceeds
    capacity. When minimum shares crowd out the proportional split, flows
    pinned at their minimum are set aside and the rest of the budget is
    re-apportioned among the others. Minimum shares that do not fit the
    capacity together (it can be a BDP measured during the run) are each
    scaled to floor(min_share * capacity / sum(min_share)).

    At least one flow is never pinned: after that scaling the minimums sum
    to at most the capacity, so the budget left always covers the minimums
    of the flows left, and the shares of those flows (positive weights) sum
    to that budget, so they cannot all fall below their minimums.
    """
    if not demands:
        return {}
    total_min = sum(d.min_share for d in demands)
    if capacity < total_min:
        demands = [replace(d, min_share=d.min_share * capacity // total_min) for d in demands]

    pinned: dict[str, int] = {}
    active = list(demands)
    budget = capacity
    while True:
        total = sum(d.requirement for d in active)
        shares = {d.flow_id: Fraction(budget) * d.requirement / total for d in active}
        newly_pinned = [d for d in active if shares[d.flow_id] < d.min_share]
        if not newly_pinned:
            break
        for d in newly_pinned:
            pinned[d.flow_id] = d.min_share
            budget -= d.min_share
        active = [d for d in active if d.flow_id not in pinned]

    alloc = {fid: int(share) for fid, share in shares.items()}  # floor
    leftover = budget - sum(alloc.values())
    order = sorted(active, key=lambda d: (-(shares[d.flow_id] - alloc[d.flow_id]), d.flow_id))
    for i in range(leftover // mss):  # round robin; `active` is never empty
        alloc[order[i % len(order)].flow_id] += mss
    alloc.update(pinned)
    if sum(alloc.values()) > capacity:
        raise SimError(f"window allocation {alloc} exceeds capacity {capacity}")
    return {d.flow_id: alloc[d.flow_id] for d in demands}

