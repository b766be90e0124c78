#!/usr/bin/env python3
"""Run every shipped handover scenario in all three modes and summarize.

Writes one comparison CSV per scenario into results/ and prints the headline
numbers (drops, recoveries, spurious retransmissions, goodput) side by side.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from satwin.kernel import SEC
from satwin.metrics import write_csv
from satwin.runner import run
from satwin.scenario import load_scenario

SCENARIOS = ["s1_wlan_to_sat", "s2_sat_to_wlan", "s3_multiflow", "s4_three_networks"]
MODES = ["BASELINE", "PROACTIVE", "RESET_CWND"]
SEED = 1


def main() -> int:
    out_dir = REPO / "results"
    out_dir.mkdir(exist_ok=True)
    for name in SCENARIOS:
        scenario = load_scenario(REPO / "scenarios" / f"{name}.scn")
        rows = []
        print(f"\n=== {name} (seed {SEED}) ===")
        header = (f"{'mode':<11} {'goodput_kbps':>12} {'rexmit':>7} {'spurious':>9} "
                  f"{'rto':>4} {'new-path drops':>15} {'gap_ms':>9}")
        print(header)
        for mode in MODES:
            metrics, _ = run(scenario, mode=mode, seed=SEED)
            mode_rows = metrics.csv_rows()
            rows.extend(mode_rows)
            ho = metrics.handovers[0]
            window = (ho.at, ho.at + 5 * SEC)
            drops_new = metrics.drops_on_kind(ho.new_kind, start=window[0], end=window[1])
            for row in mode_rows:
                fm = metrics.flows[row["flow_id"]]
                print(f"{mode:<11} {fm.goodput_bps() / 1000:>12.1f} {fm.retransmits:>7} "
                      f"{fm.spurious_retransmits:>9} {len(fm.rto_times):>4} {drops_new:>15} "
                      f"{row['handover_gap_ms']:>9}")
        out = out_dir / f"{name}_compare.csv"
        out.write_text(write_csv(rows))
        print(f"-> {out.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
