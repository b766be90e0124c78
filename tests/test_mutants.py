"""`scripts/mutants.py`: every mutant still applies to the tree, and one
run against one test file names its known killer. The full list is not
run here (about ten minutes)."""

import importlib.util
import subprocess
import sys

from conftest import REPO_ROOT


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", REPO_ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_changes_one_place_in_the_tree():
    module = _mutants()
    names = [m.name for m in module.MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in module.MUTANTS:
        original = (REPO_ROOT / mutant.file).read_text()
        assert module.apply(mutant, REPO_ROOT) != original, mutant.name


def test_a_mutant_is_killed_by_its_known_test_in_a_copy():
    # the kernel's `except` never matching leaves `SimError.event` unset
    target = REPO_ROOT / "src" / "satwin" / "kernel.py"
    before = target.read_text()
    proc = subprocess.run([sys.executable, "scripts/mutants.py", "--only", "kernel-no-except",
                           "--tests", "tests/test_net.py"], cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line, total = proc.stdout.splitlines()
    assert line.startswith("kernel-no-except         killed by "
                           "tests/test_net.py::test_unwired_link_is_a_sim_error_naming_the_link (")
    assert total.startswith("1 mutants, 0 survived, ")
    assert target.read_text() == before  # the working tree is never touched
