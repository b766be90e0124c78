#!/usr/bin/env python3
"""Run the body of `tests/test_scenario.py::test_generated_scenarios_run_in_every_mode`
on many more drawn scenario files than the test itself draws.

    python3 scripts/generated_runs.py --seeds 0 1 2 3 --examples 400

For each seed, hypothesis draws `--examples` files from `scenario_texts`
with that seed and no example database, so a seed draws the same files on
every run and checkout, and each file runs through the test's body (every
mode, traced and untraced, against the all-events reference). It prints
one line per seed. On a failure it prints the seed and the canonical text
of the failing file (shrunk by hypothesis), and exits 1. The command above
takes about a minute (2-core Xeon VM, Python 3.11).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Optional

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from hypothesis import HealthCheck, given, seed, settings  # noqa: E402

import test_scenario  # noqa: E402  (tests/test_scenario.py)
from satwin.scenario import canonical_text, parse_scenario  # noqa: E402

BODY = test_scenario.test_generated_scenarios_run_in_every_mode.hypothesis.inner_test


def run_seed(at_seed: int, examples: int, body: Callable[[str], None]) -> tuple[int, Optional[str]]:
    """Run `body` on the files drawn at `at_seed`: the number of files run,
    and the text of the failing file hypothesis ends on, or None."""
    ran, failed = 0, []

    def checked(text: str) -> None:
        nonlocal ran
        ran += 1
        try:
            body(text)
        except Exception:
            failed.append(text)
            raise

    test = settings(max_examples=examples, database=None, deadline=None, print_blob=False,
                    suppress_health_check=[HealthCheck.too_slow])(
        seed(at_seed)(given(test_scenario.scenario_texts())(checked)))
    try:
        test()
    except Exception:
        return ran, failed[-1]
    return ran, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    parser.add_argument("--examples", type=int, default=400)
    args = parser.parse_args(argv)
    for at_seed in args.seeds:
        start = time.perf_counter()
        ran, failed = run_seed(at_seed, args.examples, BODY)
        if failed is not None:
            print(f"seed {at_seed}: FAILED on this file ({ran} runs of the body)")
            print(canonical_text(parse_scenario(failed, "gen")), end="")
            return 1
        print(f"seed {at_seed}: {ran} files passed ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
