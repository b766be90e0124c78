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
