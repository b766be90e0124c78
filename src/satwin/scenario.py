"""Scenario files: flat sectioned text, `[section]` headers, `key = value`.

Sections: one [sim], and any number of [node.<name>], [link.<name>],
[flow.<name>], [handover.<n>], each name at most once per kind. Times are
decimal seconds (must land on the microsecond grid), bandwidths bits/second,
sizes bytes. `_SCHEMA` declares every key once: its parser, its default
(or that it is required) and how `canonical_text` writes it back. Unknown
sections or keys, duplicates and bad values are configuration errors
reported with their line number.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from .errors import ConfigError
from .kernel import SEC, fmt_time
from .net import ACCESS_KINDS, LINK_KINDS, HEADER_BYTES, LinkSpec, NodeSpec

BASELINE = "BASELINE"
PROACTIVE = "PROACTIVE"
RESET_CWND = "RESET_CWND"
MODES = (BASELINE, PROACTIVE, RESET_CWND)

MODE_NAMES = {"baseline": BASELINE, "proactive": PROACTIVE, "reset-cwnd": RESET_CWND}
ROLES = ("cn", "ha", "mn", "gateway", "router")
DIRECTIONS = ("terr_to_sat", "sat_to_terr")

DEFAULT_EXEC_LEAD = SEC // 2  # satellite->terrestrial detection lead


@dataclass(frozen=True)
class FlowDef:
    name: str
    src: str
    dst: str
    start: int
    volume: Optional[int]  # None = unlimited bulk source
    weight: Fraction
    min_share: int
    buffer: int
    ack_extra_delay: int = 0


@dataclass(frozen=True)
class HandoverDef:
    name: str
    at: int  # detection time
    direction: Optional[str]  # checked against `to`; the runner derives its own
    to: str
    exec_lead: int = DEFAULT_EXEC_LEAD
    ack_pacing: int = 0


@dataclass(frozen=True)
class Scenario:
    name: str
    end: int
    seed: int
    mode: str
    attach: str
    w_default: int
    sat_default_window: Optional[int]
    mss: int
    registration: str  # where binding updates originate: MN | PROXY
    proxy_gateway: Optional[str]  # the proxy's gateway under PROXY; None = the target's
    nodes: tuple[NodeSpec, ...]
    links: tuple[LinkSpec, ...]
    flows: tuple[FlowDef, ...]
    handovers: tuple[HandoverDef, ...]


# -- value parsers: (raw text, line, key) -> value ----------------------------


def _number(raw: str, line: int, key: str) -> Decimal:
    try:
        value = Decimal(raw)
    except InvalidOperation:
        raise ConfigError(f"expected a number, got {raw!r}", line, key) from None
    if not value.is_finite() or value.adjusted() > 20:
        raise ConfigError(f"number {raw!r} must be finite and below 1e21", line, key)
    return value


def _time(raw: str, line: int, key: str) -> int:
    number = _number(raw, line, key)
    value = number * SEC  # a product below the context's range underflows to 0
    if value != value.to_integral_value() or (number and not value):
        raise ConfigError(f"time {raw!r} is finer than 1 microsecond", line, key)
    if value < 0:
        raise ConfigError(f"time {raw!r} is negative", line, key)
    return int(value)


def _int(minimum: int, maximum: Optional[int] = None) -> Callable[[str, int, str], int]:
    def parse(raw: str, line: int, key: str) -> int:
        value = _number(raw, line, key)
        if value != value.to_integral_value():
            raise ConfigError(f"expected an integer, got {raw!r}", line, key)
        value = int(value)
        if value < minimum:
            raise ConfigError(f"value {value} below minimum {minimum}", line, key)
        if maximum is not None and value > maximum:
            raise ConfigError(f"value {value} above maximum {maximum}", line, key)
        return value

    return parse


def _bandwidth(raw: str, line: int, key: str) -> int:
    bits = _number(raw, line, key)
    if bits <= 0 or bits != bits.to_integral_value() or int(bits) % 8:
        raise ConfigError(
            f"bandwidth {raw!r} must be a positive whole number of bits/s divisible by 8",
            line,
            key,
        )
    return int(bits) // 8


def _availability(raw: str, line: int, key: str) -> tuple[tuple[int, int], ...]:
    windows = []
    for part in raw.split(","):
        try:
            start_s, end_s = part.split(":")
        except ValueError:
            raise ConfigError(f"availability windows look like start:end, got {part!r}", line, key)
        windows.append((_time(start_s.strip(), line, key), _time(end_s.strip(), line, key)))
    return tuple(windows)


def _weight(raw: str, line: int, key: str) -> Fraction:
    try:
        weight = Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad weight {raw!r}", line, key) from None
    if weight <= 0:
        raise ConfigError("weight must be positive", line, key)
    return weight


def _one_of(choices: tuple[str, ...] | dict[str, str]) -> Callable[[str, int, str], str]:
    """Parser for one of `choices`; a dict also translates the name."""
    values = choices if isinstance(choices, dict) else dict(zip(choices, choices))

    def parse(raw: str, line: int, key: str) -> str:
        if raw not in values:
            raise ConfigError(f"unknown {key} {raw!r}; valid: {', '.join(values)}", line, key)
        return values[raw]

    return parse


def _name(raw: str, line: int, key: str) -> str:
    return raw  # a node name; validate_scenario checks that it exists


_non_negative = _int(0)


def _volume(raw: str, line: int, key: str) -> Optional[int]:
    return _non_negative(raw, line, key) or None  # 0 = unlimited, like the default


# -- the format: section kind -> key -> how to read and write it -------------

_REQUIRED = object()


class _Key(NamedTuple):
    parse: Callable[[str, int, str], Any]
    default: Any = _REQUIRED
    write: Callable[[Any], str] = str
    field: Optional[str] = None  # attribute holding the value, if not the key


def _write_windows(windows: tuple[tuple[int, int], ...]) -> str:
    return ",".join(f"{fmt_time(a)}:{fmt_time(b)}" for a, b in windows)


_MODE_KEYS = {mode: name for name, mode in MODE_NAMES.items()}

_SCHEMA: dict[str, dict[str, _Key]] = {
    "sim": {
        "end": _Key(_time, write=fmt_time),
        "seed": _Key(_int(0, (1 << 64) - 1), 0),
        "mode": _Key(_one_of(MODE_NAMES), BASELINE, _MODE_KEYS.__getitem__),
        "attach": _Key(_one_of(ACCESS_KINDS)),
        "w_default": _Key(_int(1)),
        "sat_default_window": _Key(_int(1), None),
        "mss": _Key(_int(1), 1460),
        "registration": _Key(_one_of(("MN", "PROXY")), "MN"),
        "proxy_gateway": _Key(_name, None),
    },
    "node": {
        "role": _Key(_one_of(ROLES)),
        "kind": _Key(_one_of(ACCESS_KINDS), None),
    },
    "link": {
        "a": _Key(_name),
        "b": _Key(_name),
        "kind": _Key(_one_of(LINK_KINDS), "WIRED"),
        "bandwidth": _Key(_bandwidth, write=lambda b: str(b * 8)),
        "delay": _Key(_time, write=fmt_time, field="prop_delay"),
        "queue": _Key(_int(1), field="queue_capacity"),
        "availability": _Key(_availability, None, _write_windows),
    },
    "flow": {
        "src": _Key(_name),
        "dst": _Key(_name),
        "start": _Key(_time, write=fmt_time),
        "volume": _Key(_volume, None),
        "weight": _Key(_weight, Fraction(1)),
        "min_share": _Key(_non_negative, 0),
        "buffer": _Key(_int(1), 0),  # 0 = w_default
        "ack_extra_delay": _Key(_time, 0, fmt_time),
    },
    "handover": {
        "at": _Key(_time, write=fmt_time),
        "direction": _Key(_one_of(DIRECTIONS), None),
        "to": _Key(_one_of(ACCESS_KINDS)),
        "exec_lead": _Key(_time, DEFAULT_EXEC_LEAD, fmt_time),
        "ack_pacing": _Key(_time, 0, fmt_time),
    },
}


# what a section starts from: each optional key's default, by field name
_DEFAULTS = {
    kind: {spec.field or key: spec.default for key, spec in keys.items()
           if spec.default is not _REQUIRED}
    for kind, keys in _SCHEMA.items()
}


class _Section:
    def __init__(self, header: str, line: int):
        self.header = header  # "sim" or "<kind>.<name>"
        self.kind, _, self.name = header.partition(".")
        self.line = line
        self.items: dict[str, tuple[str, int]] = {}


def _split_sections(text: str, origin: str) -> list[_Section]:
    sections: list[_Section] = []
    seen: set[str] = set()
    items: Optional[dict[str, tuple[str, int]]] = None  # of the current section
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.partition("#")[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError(f"{origin}: malformed section header", lineno)
            section = _Section(stripped[1:-1].strip(), lineno)
            if section.kind not in _SCHEMA:
                raise ConfigError(f"unknown section [{section.kind}]", lineno)
            if bool(section.name) == (section.kind == "sim"):
                raise ConfigError(f"[{section.header}]: [sim] takes no name, "
                                  "every other section needs one", lineno)
            if section.header in seen:
                raise ConfigError(f"{origin}: duplicate section [{section.header}]", lineno)
            seen.add(section.header)
            sections.append(section)
            items = section.items
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}: expected key = value", lineno)
        if items is None:
            raise ConfigError(f"{origin}: key outside any section", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in items:
            raise ConfigError(f"{origin}: duplicate key", lineno, key)
        items[key] = (value.strip(), lineno)
    return sections


def _fill(section: _Section) -> dict[str, Any]:
    """Every key of the section's kind, parsed or defaulted, by field name."""
    schema = _SCHEMA[section.kind]
    values = dict(_DEFAULTS[section.kind])
    for key, (raw, line) in section.items.items():
        spec = schema.get(key)
        if spec is None:
            raise ConfigError(f"unknown key in [{section.kind}] section", line, key)
        values[spec.field or key] = spec.parse(raw, line, key)
    if len(values) < len(schema):
        missing = next(key for key, spec in schema.items() if (spec.field or key) not in values)
        raise ConfigError(f"[{section.header}] missing key", section.line, missing)
    return values


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    parts: dict[str, list[tuple[str, dict[str, Any]]]] = {kind: [] for kind in _SCHEMA}
    for section in _split_sections(text, name):
        parts[section.kind].append((section.name, _fill(section)))
    if not parts["sim"]:
        raise ConfigError(f"{name}: missing [sim] section")
    [(_, sim)] = parts["sim"]
    handovers = [HandoverDef(n, **v) for n, v in parts["handover"]]
    scenario = Scenario(
        name=name,
        nodes=tuple(NodeSpec(n, **v) for n, v in parts["node"]),
        links=tuple(LinkSpec(n, **v) for n, v in parts["link"]),
        flows=tuple(FlowDef(n, **v) for n, v in parts["flow"]),
        handovers=tuple(sorted(handovers, key=lambda h: (h.at, h.name))),
        **sim,
    )
    validate_scenario(scenario)
    return scenario


def validate_scenario(s: Scenario) -> None:
    node_names = {n.name for n in s.nodes}
    roles = [n.role for n in s.nodes]
    for role in ("mn", "cn", "ha"):
        if roles.count(role) != 1:
            raise ConfigError(f"scenario must define exactly one {role!r} node")
    mn, cn, ha = (next(n.name for n in s.nodes if n.role == r) for r in ("mn", "cn", "ha"))

    max_segment = s.mss + HEADER_BYTES
    for link in s.links:
        if link.a not in node_names or link.b not in node_names:
            raise ConfigError(f"link {link.name}: endpoint does not exist")
        if link.queue_capacity < max_segment:
            raise ConfigError(f"link {link.name}: queue {link.queue_capacity} B below one "
                              f"maximum segment ({max_segment} B)")
        prev_end = 0
        for start, end in link.availability or ():
            if not prev_end <= start < end:
                raise ConfigError(f"link {link.name}: availability windows must be "
                                  "sorted and disjoint")
            prev_end = end

    access_kinds = {l.kind for l in s.links if mn in (l.a, l.b) and l.kind in ACCESS_KINDS}
    for kind in access_kinds:
        count = sum(1 for l in s.links if mn in (l.a, l.b) and l.kind == kind)
        if count > 1:
            raise ConfigError(f"the mobile node has {count} {kind} access links; expected one")
    joined: dict[frozenset, str] = {}  # the run keeps one link per pair of nodes
    for link in s.links:
        other = joined.setdefault(frozenset((link.a, link.b)), link.name)
        if other != link.name:
            raise ConfigError(f"links {other} and {link.name} both join {link.a} and {link.b}")
    if s.attach not in access_kinds:
        raise ConfigError(f"initial attachment {s.attach!r} has no access link at the mobile node")
    for node in s.nodes:  # a gateway's kind is checked only; no other role takes one
        if node.kind is None:
            continue
        if node.role != "gateway":
            raise ConfigError(f"node {node.name}: kind is for gateways only, not role "
                              f"{node.role}", key="kind")
        if not any({l.a, l.b} == {mn, node.name} and l.kind == node.kind for l in s.links):
            raise ConfigError(f"gateway {node.name}: kind = {node.kind}, but it has no "
                              f"{node.kind} access link to the mobile node", key="kind")

    if not s.flows:
        raise ConfigError("scenario defines no flows")
    for flow in s.flows:
        if flow.src not in node_names or flow.dst not in node_names:
            raise ConfigError(f"flow {flow.name}: endpoint does not exist")
        if flow.dst != mn:
            raise ConfigError(f"flow {flow.name}: destination must be the mobile node")
        if flow.src in (mn, ha):
            # data reaches the mobile node through the home agent, so the
            # source must sit beyond it
            raise ConfigError(f"flow {flow.name}: src {flow.src} is the mobile node or home agent")
        if flow.start >= s.end:
            raise ConfigError(f"flow {flow.name}: starts at or after the end of the run")
        if flow_buffer(s, flow) < s.mss:
            raise ConfigError(f"flow {flow.name}: receive buffer below one segment")
    if s.sat_default_window is not None and s.sat_default_window < s.mss:
        raise ConfigError("sat_default_window below one segment", key="sat_default_window")

    for ho in s.handovers:
        if not 0 <= ho.at < s.end:
            raise ConfigError(f"handover {ho.name}: time {fmt_time(ho.at)} outside [0, end)")
        if ho.to not in access_kinds:
            raise ConfigError(f"handover {ho.name}: no {ho.to} access link at the mobile node")
        if ho.direction is not None and (ho.direction == "terr_to_sat") != (ho.to == "SAT"):
            raise ConfigError(f"handover {ho.name}: direction {ho.direction} "
                              f"contradicts to = {ho.to}")
        if ho.to == "SAT" and s.sat_default_window is None:
            raise ConfigError(
                "terrestrial->satellite handovers need sat_default_window "
                "(fallback when no satellite estimate is cached)"
            )

    proxy = s.proxy_gateway
    if proxy is not None and s.registration != "PROXY":
        raise ConfigError("proxy_gateway applies only to registration = PROXY",
                          key="proxy_gateway")
    if proxy is not None and proxy not in {n.name for n in s.nodes if n.role == "gateway"}:
        raise ConfigError(f"proxy location {proxy!r} is not a gateway node", key="proxy_gateway")

    # each node a run routes to or from must reach the HA, never through the MN
    wired = [{l.a, l.b} for l in s.links if mn not in (l.a, l.b)]
    reached, size = {ha}, 0
    while len(reached) > size:
        size = len(reached)
        reached = reached.union(*[ends for ends in wired if ends & reached])
    gateways = [l.a if l.b == mn else l.b for l in s.links
                if mn in (l.a, l.b) and l.kind in ACCESS_KINDS]
    for node in [cn, *(f.src for f in s.flows), *gateways, proxy]:
        if node is not None and node not in reached:
            raise ConfigError(f"no wired route from {node} to the home agent {ha}")


def flow_buffer(s: Scenario, flow: FlowDef) -> int:
    return flow.buffer or s.w_default


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"scenario file {path} does not exist") from None
    except OSError as exc:  # a directory, or no permission
        raise ConfigError(f"cannot read scenario file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"scenario file {path} is not UTF-8 (byte {exc.start})") from None
    return parse_scenario(text, name=path.stem)


def canonical_text(s: Scenario) -> str:
    """Emit a normal form that parses back to an equal Scenario: each
    section with every key whose value differs from its default."""
    sections = [("sim", "", vars(s))]
    for kind, specs in (("node", s.nodes), ("link", s.links), ("flow", s.flows),
                        ("handover", s.handovers)):
        sections += [(kind, spec.name, vars(spec)) for spec in specs]
    out = []
    for kind, name, values in sections:
        out.append(f"[{kind}.{name}]" if name else f"[{kind}]")
        for key, spec in _SCHEMA[kind].items():
            value = values.get(spec.field or key, spec.default)
            if value != spec.default:
                out.append(f"{key} = {spec.write(value)}")
        out.append("")
    return "\n".join(out)
