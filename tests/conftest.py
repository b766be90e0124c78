import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from satwin.scenario import Scenario, load_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = REPO_ROOT / "scenarios"

SHIPPED = ["s1_wlan_to_sat", "s2_sat_to_wlan", "s3_multiflow", "s4_three_networks", "slow_start"]


def scenario_path(name: str) -> Path:
    return SCENARIOS / f"{name}.scn"


def load_script(name: str):
    """`scripts/<name>.py` as a module, with `sys.path` as it was before."""
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def cut(scenario: Scenario, end: int) -> Scenario:
    """`scenario` cut at `end`: its handovers at or after the cut go, so the
    result is one validation would accept (every handover before the end)."""
    return replace(scenario, end=end, handovers=tuple(h for h in scenario.handovers if h.at < end))


# the all-events reference run, and the log of what the MN and the senders see
DIGEST_RUNS = load_script("digest_runs")
all_events, packet_log = DIGEST_RUNS.all_events, DIGEST_RUNS.packet_log


@pytest.fixture(scope="session")
def shipped_scenarios():
    return {name: load_scenario(scenario_path(name)) for name in SHIPPED}
