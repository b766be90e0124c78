"""The benchmark's span tracer (`satbench/tracer.py`) patches satwin by
attribute name. A renamed or moved method would leave its per-layer
figures at zero, so every name it patches must still be defined where the
tracer looks it up."""

import importlib.util

from conftest import REPO_ROOT
from satwin import kernel


def _tracer_module():
    spec = importlib.util.spec_from_file_location("satbench_tracer",
                                                  REPO_ROOT / "satbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves_where_the_tracer_looks_it_up():
    points = list(_tracer_module().PATCH_POINTS) + [(kernel.Kernel, "schedule", "kernel.schedule")]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in points if attr not in vars(owner)]
    assert missing == []
    assert all(callable(vars(owner)[attr]) for owner, attr, _ in points)


def test_inflight_bytes_survive_the_tracers_wrapped_handlers(shipped_scenarios):
    # the tracer wraps every scheduled handler in a closure, so the runner
    # must not read the arriving segment from the handler's arguments
    from satwin.runner import run

    scenario = shipped_scenarios["s2_sat_to_wlan"]
    plain, _ = run(scenario, mode="PROACTIVE")
    with _tracer_module().Tracer():
        traced, _ = run(scenario, mode="PROACTIVE")
    inflight = {fid: fm.bytes_inflight_end for fid, fm in plain.flows.items()}
    assert inflight == {fid: fm.bytes_inflight_end for fid, fm in traced.flows.items()}
    assert all(n > 0 for n in inflight.values())


def test_every_patched_layer_is_reached_by_a_traced_handover_pair():
    # S1 and S2 in PROACTIVE run each layer the tracer times: a refactor that
    # calls past a patch point would leave its figures at zero
    from satwin import metrics, runner, scenario

    tracer = _tracer_module()
    with tracer.Tracer() as t:
        for name in ("s1_wlan_to_sat", "s2_sat_to_wlan"):
            parsed = scenario.parse_scenario((REPO_ROOT / "scenarios" / f"{name}.scn").read_text())
            result, trace = runner.run(parsed, mode="PROACTIVE", trace=True)
            assert metrics.write_csv(result.csv_rows()) and trace.text()
    idle = sorted({span for _, _, span in tracer.PATCH_POINTS if t.calls(span) == 0})
    assert idle == ["tcp.on_rto"]  # no timeout fires on these two runs
    assert t.calls("net.rtt_table") == 1  # S1's one move onto the satellite
    assert t.calls("handover.plan") == 3  # plan_terr_to_sat, allocate, plan_sat_to_terr
