"""Command line interface: run / compare / validate.

Exit codes: 0 success, 2 configuration error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from .errors import ConfigError
from .kernel import SimError
from .metrics import write_csv
from .runner import compare, run
from .scenario import MODE_NAMES, load_scenario


def _mode(value: str) -> str:
    if value not in MODE_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown mode {value!r}; valid modes: {', '.join(sorted(MODE_NAMES))}"
        )
    return MODE_NAMES[value]


def _modes(value: str) -> list[str]:
    return [_mode(m.strip()) for m in value.split(",") if m.strip()]


def _seed(value: str) -> int:
    seed = int(value)
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return seed


def _write(outputs: list[tuple[str | None, str]]) -> None:
    """Write every text to its path (skipping an empty path) or none: each goes to a
    temporary file beside its path, and the files replace the paths once all are written."""
    staged = []  # (temporary file, path)
    try:
        for path, text in outputs:
            if not path:
                continue
            target = Path(path)
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            staged.append((tmp, path))
            tmp.write_text(text)
        for tmp, path in staged:
            tmp.replace(path)
    except OSError as exc:  # after the run: a missing directory, a directory, no permission
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="satwin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario in one mode")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--mode", type=_mode, default=None,
                       help="baseline | proactive | reset-cwnd (default: scenario)")
    p_run.add_argument("--seed", type=_seed, default=None)
    p_run.add_argument("--metrics", default=None, help="metrics CSV output path")
    p_run.add_argument("--trace", default=None, help="trace output path")

    p_cmp = sub.add_parser("compare", help="run several modes side by side")
    p_cmp.add_argument("--scenario", required=True)
    p_cmp.add_argument("--modes", type=_modes, required=True,
                       help="comma-separated list, e.g. baseline,proactive")
    p_cmp.add_argument("--seed", type=_seed, default=None)
    p_cmp.add_argument("--out", default=None, help="comparison CSV output path")

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--scenario", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            load_scenario(args.scenario)
            print(f"{args.scenario}: ok")
            return 0
        scenario = load_scenario(args.scenario)
        if args.command == "run":
            metrics, trace = run(scenario, mode=args.mode, seed=args.seed,
                                 trace=args.trace is not None)
            csv_text = write_csv(metrics.csv_rows())
            _write([(args.metrics, csv_text), (args.trace, trace.text())])
            if not args.metrics:
                sys.stdout.write(csv_text)
            return 0
        if args.command == "compare":
            csv_text = write_csv(compare(scenario, args.modes, seed=args.seed))
            _write([(args.out, csv_text)])
            if not args.out:
                sys.stdout.write(csv_text)
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
