"""Seeded workload generators: each returns the scenario texts of one pass.

The simulator sees only the generated text. The seed varies the inputs
(link delays and queues, flow starts and weights, handover times), never
the kernel seed, which the core model does not draw from. Ranges are kept
narrow so that one pass costs about the same host time on every seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

MODES = ("BASELINE", "PROACTIVE", "RESET_CWND")
SHIPPED = ("s1_wlan_to_sat", "s2_sat_to_wlan", "s3_multiflow", "s4_three_networks")


@dataclass(frozen=True)
class Job:
    """One simulation: scenario text, its name, the mode, tracing on/off."""

    name: str
    text: str
    mode: str
    trace: bool = False


def _secs(us: int) -> str:
    return f"{us // 1_000_000}.{us % 1_000_000:06d}"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"satbench/{workload}/{seed}")


def _sim(end_us: int, attach: str, w_default: int = 131072) -> str:
    return (
        f"[sim]\nend = {_secs(end_us)}\nseed = 1\nmode = baseline\nattach = {attach}\n"
        f"w_default = {w_default}\nsat_default_window = 63750\nmss = 1460\n"
        "registration = MN\n"
    )


def _nodes(*specs: tuple[str, str, str | None]) -> str:
    out = []
    for name, role, kind in specs:
        out.append(f"\n[node.{name}]\nrole = {role}\n" + (f"kind = {kind}\n" if kind else ""))
    return "".join(out)


def _link(name: str, a: str, b: str, bandwidth: int, delay_us: int, queue: int,
          kind: str | None = None) -> str:
    return (
        f"\n[link.{name}]\na = {a}\nb = {b}\n" + (f"kind = {kind}\n" if kind else "")
        + f"bandwidth = {bandwidth}\ndelay = {_secs(delay_us)}\nqueue = {queue}\n"
    )


def _flow(name: str, start_us: int, weight: int | None = None, buffer: int | None = None) -> str:
    out = f"\n[flow.{name}]\nsrc = CN\ndst = MN\nstart = {_secs(start_us)}\n"
    if weight is not None:
        out += f"weight = {weight}\n"
    if buffer is not None:
        out += f"buffer = {buffer}\n"
    return out


def _handover(name: str, at_us: int, direction: str, to: str) -> str:
    return f"\n[handover.{name}]\nat = {_secs(at_us)}\ndirection = {direction}\nto = {to}\n"


def bulk_reno(seed: int) -> list[Job]:
    """Four single-flow downloads of 10 simulated seconds over a fixed WLAN
    attachment, no handover.

    The WLAN queue (24-48 KB) sits below the 128 KB advertised window, so
    Reno repeatedly overflows it and saws between fast retransmits.
    """
    rng = _rng("bulk_reno", seed)
    jobs = []
    for i in range(4):
        text = (
            _sim(10_000_000, "WLAN")
            + _nodes(("CN", "cn", None), ("HA", "ha", None), ("WGW", "gateway", "WLAN"),
                     ("MN", "mn", None))
            + _link("wlan", "MN", "WGW", 10_000_000, rng.randrange(8_000, 12_001),
                    rng.randrange(24_576, 49_153), kind="WLAN")
            + _link("wgw_cn", "WGW", "CN", 100_000_000, rng.randrange(4_000, 6_001), 262144)
            + _link("wgw_ha", "WGW", "HA", 100_000_000, rng.randrange(4_000, 6_001), 262144)
            + _link("cn_ha", "CN", "HA", 100_000_000, rng.randrange(3_000, 5_001), 262144)
            + _flow("f1", rng.randrange(0, 200_001))
        )
        jobs.append(Job(f"bulk{i}", text, "BASELINE"))
    return jobs


_S1_LINKS = (
    ("wlan", "MN", "WGW", 10_000_000, 10_000, 131072, "WLAN"),
    ("sat", "MN", "SGW", 1_000_000, 250_000, 65536, "SAT"),
    ("wgw_cn", "WGW", "CN", 100_000_000, 5_000, 262144, None),
    ("wgw_ha", "WGW", "HA", 100_000_000, 5_000, 262144, None),
    ("sgw_cn", "SGW", "CN", 100_000_000, 5_000, 262144, None),
    ("sgw_ha", "SGW", "HA", 100_000_000, 8_000, 262144, None),
    ("cn_ha", "CN", "HA", 100_000_000, 4_000, 262144, None),
)

_LINE = re.compile(r"^(\w+)\s*=\s*([^#\s]+)")
_SECTION = re.compile(r"^\[(\w+)\.?")


def perturb(text: str, rng: random.Random) -> str:
    """Shift a shipped scenario within small ranges: handover times by up to
    +-0.1 s, flow starts by up to +0.05 s, link delays by +-5 % and access
    queues by +-10 %. Every value stays on the scenario's microsecond grid."""
    out = []
    section = ""
    access = False
    for line in text.splitlines():
        head = _SECTION.match(line)
        if head:
            section, access = head.group(1), False
            out.append(line)
            continue
        kv = _LINE.match(line)
        if not kv:
            out.append(line)
            continue
        key, value = kv.groups()
        if section == "link" and key == "kind":
            access = value in ("WLAN", "GPRS", "SAT")
        if section == "handover" and key == "at":
            line = f"at = {_secs(_us(value) + rng.randrange(-100_000, 100_001))}"
        elif section == "flow" and key == "start":
            line = f"start = {_secs(_us(value) + rng.randrange(0, 50_001))}"
        elif section == "link" and key == "delay":
            line = f"delay = {_secs(round(_us(value) * rng.uniform(0.95, 1.05)))}"
        elif section == "link" and key == "queue" and access:
            line = f"queue = {round(int(value) * rng.uniform(0.9, 1.1))}"
        out.append(line)
    return "\n".join(out) + "\n"


def _us(value: str) -> int:
    whole, _, frac = value.partition(".")
    return int(whole) * 1_000_000 + int((frac + "000000")[:6])


def handover_sweep(seed: int, scenario_dir: Path) -> list[Job]:
    """The paper's comparison sweep (S1-S4 in all three modes), each shipped
    scenario perturbed once per pass; tracing off."""
    rng = _rng("handover_sweep", seed)
    jobs = []
    for name in SHIPPED:
        text = perturb((scenario_dir / f"{name}.scn").read_text(), rng)
        jobs.extend(Job(name, text, mode) for mode in MODES)
    return jobs


def roundtrip_traced(seed: int) -> list[Job]:
    """WLAN->SAT->WLAN->SAT on the S1 topology with 1, 2 and 3 flows, in all
    three modes, with the trace on.

    The single-flow case is always generated: at this revision its
    proactive run violates the receive-window step bound at the third
    handover, which is the known defect the failed share must show.
    """
    rng = _rng("roundtrip_traced", seed)
    jobs = []
    for nflows in (1, 2, 3):
        text = _sim(14_000_000, "WLAN") + _nodes(
            ("CN", "cn", None), ("HA", "ha", None), ("WGW", "gateway", "WLAN"),
            ("SGW", "gateway", "SAT"), ("MN", "mn", None),
        )
        text += "".join(_link(*spec) for spec in _S1_LINKS)
        if nflows == 1:
            text += _flow("f1", 50_000 + rng.randrange(0, 100_001))
        elif nflows == 2:
            # the heavier share of W_REC (42.5 or 47.8 KB) exceeds the
            # terrestrial BDP (37.5 KB), the same trigger as the single flow
            text += _flow("f1", 50_000, weight=rng.randint(2, 3), buffer=65536)
            text += _flow("f2", 50_000 + rng.randrange(0, 100_001), weight=1, buffer=65536)
        else:
            for i in range(3):
                text += _flow(f"f{i + 1}", 50_000 + rng.randrange(0, 100_001) * i,
                              weight=rng.randint(1, 3), buffer=65536)
        text += _handover("1", 2_500_000 + rng.randrange(-200_000, 200_001), "terr_to_sat", "SAT")
        text += _handover("2", 8_000_000 + rng.randrange(-200_000, 200_001), "sat_to_terr", "WLAN")
        text += _handover("3", 11_000_000 + rng.randrange(-200_000, 200_001), "terr_to_sat", "SAT")
        jobs.extend(Job(f"roundtrip_{nflows}flow", text, mode, trace=True) for mode in MODES)
    return jobs


def generate(workload: str, seed: int, scenario_dir: Path) -> list[Job]:
    if workload == "bulk_reno":
        return bulk_reno(seed)
    if workload == "handover_sweep":
        return handover_sweep(seed, scenario_dir)
    if workload == "roundtrip_traced":
        return roundtrip_traced(seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("bulk_reno", "handover_sweep", "roundtrip_traced")

# Host seconds of one untraced pass, rounded, on the 2-core x86-64 host the
# benchmark was tuned on. A run makes --seconds / PASS_S passes: a fixed
# number, so the simulations attempted and failed do not depend on host speed.
PASS_S = {"bulk_reno": 2.5, "handover_sweep": 2.5, "roundtrip_traced": 5.0}
