#!/usr/bin/env python3
"""Run Tier 1 against named mutants of the simulator, one at a time.

    python3 scripts/mutants.py                       # every mutant, whole suite
    python3 scripts/mutants.py --only rtt-no-abs --tests tests/test_tcp.py

A mutant is one `(file, old, new)` replacement in `src/satwin`; its `old`
text must occur exactly once in the file. The script copies the tree into
a temporary directory once, never touching the working tree, and for each
mutant writes the mutated file there, runs `pytest -x -q` on the copy
(without `tests/test_mutants.py`, which reads the unmutated tree) and puts
the file back. It prints one line per mutant: the first test that
failed (the mutant is killed) or SURVIVED, and the time. It exits 1 if any
mutant survived, and 2 if a mutant no longer applies to the tree. Run it on
a green tree: a test that fails anyway would be named as every killer.
Each killed mutant takes 1 to 40 s (2-core Xeon VM, Python 3.11), a
survivor the whole suite.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
TIMEOUT = 600  # seconds per mutant; a mutant that hangs the suite counts as killed


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str


NET, RUNNER, METRICS = "src/satwin/net.py", "src/satwin/runner.py", "src/satwin/metrics.py"
MUTANTS = [
    # links
    Mutant("release-strict", NET, "while backlog and backlog[0][0] <= at:",
           "while backlog and backlog[0][0] < at:"),
    Mutant("overflow-ge", NET, "if occupancy + wire > self.capacity:",
           "if occupancy + wire >= self.capacity:"),
    Mutant("serialization-floor", NET,
           "return (wire_bytes * SEC + self.bandwidth - 1) // self.bandwidth",
           "return wire_bytes * SEC // self.bandwidth"),
    Mutant("serialization-shared", NET, "self.serialization: dict[int, int] = {}",
           "self.serialization = LinkSpec.serialization_us.__dict__.setdefault('table', {})"),
    Mutant("take-any-segment", NET, "\n                     and e[5].flags & F_DATA)", ")"),
    Mutant("take-at-detection", NET, "if e[0] < before and", "if e[0] <= before and"),
    Mutant("link-stamps-network", NET, "seg.hop = hop = seg.hop + 1",
           "seg.hop = hop = seg.hop + 1\n        if self.spec.kind != 'WIRED':\n"
           "            seg.path_tag = self.spec.kind"),
    # hand-offs
    Mutant("no-feeder-guard", RUNNER, "cut = all(link.feeder for link in forward[1:])",
           "cut = True"),
    Mutant("no-pacing-reset", RUNNER,
           "                sim._mn_hand_offs = False  # no MN interval starts again\n", ""),
    Mutant("agent-drain-clause", RUNNER, "if into is None or ho is not None and ho.markers:",
           "if into is None or ho is not None and (ho.markers or ho.draining):"),
    Mutant("mn-no-drain-condition", RUNNER,
           "if self._unsettled or link.hand_off is None or ho.draining or any(",
           "if self._unsettled or link.hand_off is None or any("),
    Mutant("mn-hand-off-traced", RUNNER, "mn_events = self.trace.enabled or any(",
           "mn_events = any("),
    Mutant("mn-busy-route-gt", RUNNER, "hop.free_at + hop.prop_delay >= now",
           "hop.free_at + hop.prop_delay > now"),
    Mutant("interval-takes-nothing", RUNNER,
           "for at, kernel.origin, seg in take_arrivals(kernel, link, before):",
           "for at, kernel.origin, seg in []:"),
    Mutant("dropped-buack-unsettles", RUNNER,
           "if seg.mark is not None and not seg.flags & F_BUACK:", "if seg.mark is not None:"),
    # timers, windows, the sender
    Mutant("rto-no-requeue", RUNNER,
           "rt.rto_event = self.kernel.schedule(rt.rto_at, partial(self._on_rto, rt), \"rto\")\n"
           "            return",
           "rt.rto_event = None\n            return"),
    Mutant("resting-cap-unbounded", RUNNER, "return min(buffer, self.cache[self.attachment])",
           "return self.cache[self.attachment]"),
    Mutant("rtt-no-abs", "src/satwin/tcp.py", "abs(self.srtt - m)", "(self.srtt - m)"),
    # the trace's text
    Mutant("stale-ack-tail", METRICS, "if rwnd != self.tx_rwnd or flags != self.tx_flags:",
           "if self.tx_rwnd is None:"),
    Mutant("stale-second", METRICS, "if sec != self._sec:", "if self._sec is None:"),
    # where a violation is located
    Mutant("suffix-no-handover", RUNNER,
           "event={event} \"\n                        f\"handover={ho.metrics.name if ho else 'none'}]\"",
           "event={event}]\""),
    Mutant("kernel-no-except", "src/satwin/kernel.py", "except SimError as exc:",
           "except ZeroDivisionError as exc:"),
]


def apply(mutant: Mutant, root: Path) -> str:
    """The text of `mutant.file` under `root` with the mutant applied."""
    text = (root / mutant.file).read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: its old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def killer(stdout: str) -> str | None:
    """The test `pytest -q` names first as failed or in error."""
    for line in stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def run(mutants: list[Mutant], tests: list[str]) -> int:
    survived = 0
    with tempfile.TemporaryDirectory(prefix="satwin-mutants-") as tmp:
        root = Path(tmp) / "tree"
        shutil.copytree(REPO, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        for mutant in mutants:
            path = root / mutant.file
            original = path.read_text()
            path.write_text(apply(mutant, root))
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                     "--ignore", "tests/test_mutants.py", *tests],
                    cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT)
                if proc.returncode == 0:
                    verdict = "SURVIVED"
                    survived += 1
                else:
                    verdict = f"killed by {killer(proc.stdout) or f'pytest exit {proc.returncode}'}"
            except subprocess.TimeoutExpired:
                verdict = f"killed: no result within {TIMEOUT} s"
            finally:
                path.write_text(original)
            print(f"{mutant.name:<24} {verdict} ({time.perf_counter() - t0:.1f} s)", flush=True)
    return survived


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run these mutants alone")
    parser.add_argument("--tests", nargs="+", default=[], metavar="PATH",
                        help="test files or node ids to run (default: the whole suite)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = sorted(set(args.only or ()) - set(by_name))
    if unknown:
        parser.error(f"unknown mutant(s) {', '.join(unknown)}; known: {', '.join(by_name)}")
    mutants = [by_name[n] for n in args.only] if args.only else MUTANTS
    try:
        for m in mutants:
            apply(m, REPO)
    except ValueError as exc:
        print(f"mutants: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    survived = run(mutants, args.tests)
    print(f"{len(mutants)} mutants, {survived} survived, {time.perf_counter() - t0:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
