"""Benchmark passes over the satwin public API.

One process, one thread, one simulation at a time: a closed loop with a
single caller. A pass runs every job of a workload once. Each simulation is
timed from scenario text to its rendered outputs:

    parse_scenario -> Simulation -> run -> csv_rows/write_csv [-> Trace.text]

Output checks, digests and layer counters are taken after the clock stops.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import heapq
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from satwin import metrics, runner, scenario
from satwin.errors import ConfigError, ProtocolViolation
from satwin.kernel import SEC, SimError, fmt_time

from tracer import Tracer
from workloads import MODES, PASS_S, SHIPPED, Job

SIM_ERRORS = (ConfigError, SimError, ProtocolViolation, AssertionError)
SETUP_PER_PASS = 240  # parse + init repetitions behind setup_s, after each pass
REF_S = 0.020  # times are reported as if one reference loop took this long
REF_POOL = 1 << 16  # objects the reference loop walks through
EVENT_KINDS = ("link-tx", "link-rx", "ack-paced", "rto", "drain-timeout", "handover",
               "t2s-exec", "s2t-exec", "flow-start")
QUEUE_LINKS = ("wlan_MN_WGW", "wlan_WGW_MN", "sat_MN_SGW", "sat_SGW_MN",
               "gprs_MN_GGW", "gprs_GGW_MN")


@dataclass
class Outcome:
    """One simulation's result: host time, simulated time if it completed,
    the named failure if not, an output digest and end-state counters."""

    host_s: float
    ref_s: float = REF_S  # reference-loop time measured around this simulation
    sim_s: float = 0.0
    error: Optional[str] = None
    csv_digest: str = ""
    trace_digest: str = ""
    facts: dict = field(default_factory=dict)


class _Node:
    __slots__ = ("at", "kind", "nxt")

    def __init__(self, at: int, kind: str):
        self.at = at
        self.kind = kind
        self.nxt: _Node = self


@functools.cache
def _reference_pool() -> list[_Node]:
    """A few MB of linked objects, so the reference loop misses the caches
    the way the simulator's working set does."""
    pool = [_Node(i, "rx" if i & 1 else "tx") for i in range(REF_POOL)]
    for i, node in enumerate(pool):
        node.nxt = pool[(i * 40503 + 1) % REF_POOL]
    return pool


def reference_s() -> float:
    """Host time of a fixed pure-Python loop that shares no code with
    satwin: pointer chasing through a pool of objects, heap pushes and pops
    and dict updates, the simulator's instruction mix.

    The host's speed drifts by 10-20 % over seconds on a shared machine.
    Dividing a measured time by this loop's time measured around it
    cancels that drift, but not a change in satwin."""
    node = _reference_pool()[0]
    t0 = time.perf_counter()
    heap: list = []
    counts: dict[str, int] = {}
    for i in range(12_000):
        node = node.nxt.nxt
        heapq.heappush(heap, ((i * 7919) % 4096, i, node))
        if len(heap) > 64:
            ev = heapq.heappop(heap)[2]
            counts[ev.kind] = counts.get(ev.kind, 0) + ev.at % 3
    return time.perf_counter() - t0


def at_reference_speed(host_s: float, ref_s: float) -> float:
    """A host time scaled to a host on which the reference loop takes REF_S."""
    return host_s * REF_S / ref_s


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _facts(sim, trace_text: str) -> dict:
    """End-state counters of one simulation (completed or not)."""
    links = sim.topo.directed.values()
    flows = sim.flows.values()
    hos = sim.metrics.handovers
    return {
        "drops.overflow": sum(d.drops["OVERFLOW"] for d in links),
        "drops.no_coverage": sum(d.drops["NO_COVERAGE"] for d in links),
        "retransmits": sum(rt.sender.retransmit_count for rt in flows),
        "spurious_retransmits": sum(rt.metrics.spurious_retransmits for rt in flows),
        "inorder_bytes": sum(rt.receiver.delivered_inorder for rt in flows),
        "sent_bytes": sum(rt.metrics.bytes_sent for rt in flows),
        "bindings_peak": max((len(b) for b in sim.ha.table.entries.values()), default=0),
        "no_binding_drops": sim.metrics.no_binding_drops,
        "handover.count": len(hos),
        "handover.aborted": sum(h.aborted for h in hos),
        "handover.drain_timeouts": sum(h.drain_timed_out for h in hos),
        "handover.old_path_enqueues_after_tr1": sum(h.old_path_enqueues_after_tr1 for h in hos),
        "trace_lines": len(sim.trace.lines),
        "trace_bytes": len(trace_text.encode()),
    }


def _check_outputs(job: Job, sim, result, csv_text: str, trace_text: str) -> Optional[str]:
    """The output checks a completed simulation must pass."""
    rows = csv_text.splitlines()
    if rows[0] != ",".join(metrics.CSV_COLUMNS) or len(rows) != 1 + len(sim.flows):
        return "metrics CSV does not hold one row per flow"
    for fid, fm in result.flows.items():
        if fm.delivered_inorder <= 0:
            return f"flow {fid} delivered nothing in order"
    for ho in result.handovers:
        if ho.old_path_enqueues_after_tr1:
            return f"handover {ho.name}: {ho.old_path_enqueues_after_tr1} old-path enqueues after t_r1"
    if job.trace and (not sim.trace.lines or trace_text.count("\n") != len(sim.trace.lines)):
        return "trace text does not hold one line per trace event"
    if not job.trace and sim.trace.lines:
        return "trace lines recorded with tracing off"
    return None


def run_job(job: Job) -> Outcome:
    sim = None
    t0 = time.perf_counter()
    try:
        spec = scenario.parse_scenario(job.text, job.name)
        sim = runner.Simulation(spec, mode=job.mode, trace=job.trace)
        result = sim.run()
        csv_text = metrics.write_csv(result.csv_rows())
        trace_text = sim.trace.text() if job.trace else ""
        host_s = time.perf_counter() - t0
    except SIM_ERRORS as exc:
        host_s = time.perf_counter() - t0
        when = f" at t={fmt_time(sim.kernel.now)} s" if sim is not None else ""
        error = f"{job.name}/{job.mode}: {type(exc).__name__}: {exc}{when}"
        out = Outcome(host_s, error=error, csv_digest=_sha(error), trace_digest=_sha(error))
        if sim is not None:
            out.facts = _facts(sim, "")
        return out
    out = Outcome(host_s, csv_digest=_sha(csv_text), trace_digest=_sha(trace_text),
                  facts=_facts(sim, trace_text))
    out.error = _check_outputs(job, sim, result, csv_text, trace_text)
    if out.error is None:
        out.sim_s = spec.end / SEC
    else:
        out.error = f"{job.name}/{job.mode}: output check: {out.error}"
    return out


def run_pass(jobs: list[Job]) -> list[Outcome]:
    outcomes = []
    before = reference_s()
    for job in jobs:
        # each simulation starts from a collected heap, so neither its time
        # nor the peak RSS depends on when the previous one's cycles are freed
        gc.collect()
        out = run_job(job)
        after = reference_s()
        out.ref_s = (before + after) / 2
        before = after
        outcomes.append(out)
    return outcomes


def loop(jobs: list[Job], count: int,
         setup: Optional[list[float]] = None) -> list[list[Outcome]]:
    """`count` whole passes, back to back. The count is fixed, not timed, so
    a run attempts the same simulations however fast the host is.
    With a `setup` list, set-up samples are taken after every pass, so they
    spread over the run like the passes do."""
    passes = []
    for _ in range(count):
        passes.append(run_pass(jobs))
        if setup is not None:
            setup.extend(setup_times(jobs, SETUP_PER_PASS))
    return passes


def digest(passes: list[list[Outcome]]) -> tuple[str, str]:
    """Digests of one pass's CSV rows and trace texts."""
    first = passes[0]
    return (_sha("".join(o.csv_digest for o in first)),
            _sha("".join(o.trace_digest for o in first)))


def consistent(*groups: list[list[Outcome]]) -> bool:
    """Every pass of every group produced the same outputs."""
    seen = {tuple((o.csv_digest, o.trace_digest) for o in p) for g in groups for p in g}
    return len(seen) == 1


def setup_times(jobs: list[Job], count: int) -> list[float]:
    """Host time from scenario text to a ready Simulation, `count` times
    over the jobs in turn, at reference speed."""
    samples = []
    before = reference_s()
    while len(samples) < count:
        for job in jobs[:count - len(samples)]:
            t0 = time.perf_counter()
            runner.Simulation(scenario.parse_scenario(job.text, job.name), mode=job.mode,
                              trace=job.trace)
            samples.append(time.perf_counter() - t0)
    ref_s = (before + reference_s()) / 2
    return [at_reference_speed(t, ref_s) for t in samples]


def golden_check(repo: Path) -> list[tuple[str, int, list[str]]]:
    """Re-run the shipped comparison set (S1-S4 x three modes, seed 1) the
    way scripts/run_comparisons.py does and compare each mode's rows, and
    each whole file, byte for byte with results/*.csv.

    Returns (file, simulations, failures) per file."""
    report = []
    for name in SHIPPED:
        path = repo / "results" / f"{name}_compare.csv"
        expected = path.read_text() if path.exists() else ""
        spec = scenario.load_scenario(repo / "scenarios" / f"{name}.scn")
        rows, failures = [], []
        for mode in MODES:
            try:
                result, _ = runner.run(spec, mode=mode, seed=1)
            except SIM_ERRORS as exc:
                failures.append(f"{name}/{mode}: {type(exc).__name__}: {exc}")
                continue
            mode_rows = result.csv_rows()
            rows.extend(mode_rows)
            got = metrics.write_csv(mode_rows).splitlines()[1:]
            want = [line for line in expected.splitlines()[1:] if line.split(",")[1:2] == [mode]]
            if got != want:
                failures.append(f"{name}/{mode}: rows differ from {path.name}")
        if not failures and metrics.write_csv(rows) != expected:
            failures.append(f"{name}: {path.name} differs byte for byte")
        report.append((path.name, len(MODES), failures))
    return report


@dataclass
class Report:
    """What one benchmark run measured, ready to print."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str]


def _failures(passes: list[list[Outcome]]) -> list[str]:
    return sorted({o.error for p in passes for o in p if o.error})


def pass_s(passes: list[list[Outcome]]) -> float:
    """Host seconds of one pass at reference speed: the sum over jobs of
    each job's median over the passes."""
    return sum(
        statistics.median(at_reference_speed(p[i].host_s, p[i].ref_s) for p in passes)
        for i in range(len(passes[0]))
    )


def _count(passes: list[list[Outcome]]) -> tuple[int, int]:
    outcomes = [o for p in passes for o in p]
    return len(outcomes), sum(o.error is not None for o in outcomes)


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill about `seconds` of host time, from the workload's
    nominal pass time: a function of the arguments only, so that two runs
    with the same arguments attempt the same simulations."""
    return max(1, round(seconds / PASS_S[workload]))


def measure(workload: str, jobs: list[Job], seconds: float, trace: bool, repo: Path) -> Report:
    lines = [f"workload {workload}: {len(jobs)} simulations per pass"]
    golden = golden_check(repo)
    golden_failed = sum(min(len(f), n) for _, n, f in golden)
    for fname, n, failures in golden:
        lines.append(f"golden {fname}: {'match' if not failures else 'MISMATCH'} ({n} simulations)")
        lines.extend(f"  golden failure: {f}" for f in failures)
    golden_attempted = sum(n for _, n, _ in golden)

    if not trace:
        setup: list[float] = []
        untraced = loop(jobs, pass_count(workload, seconds), setup)
        tracer = Tracer()
        with tracer:
            traced = [run_pass(jobs)]
    else:
        untraced = loop(jobs, pass_count(workload, seconds / 2))
        tracer = Tracer()
        with tracer:
            traced = loop(jobs, pass_count(workload, seconds / 2))

    attempted, failed = _count(untraced)
    pass_host_s = pass_s(untraced)
    pass_sim_s = sum(o.sim_s for o in untraced[0])
    hops_per_pass = tracer.calls("net.transmit") / len(traced)
    same = consistent(untraced, traced)
    csv_digest, trace_digest = digest(untraced)

    lines.append(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
                 f"{attempted} simulations attempted, {failed} failed")
    failed_share = failed / attempted
    lines.append(f"failed_share {failed_share:.4f} ratio ({failed} of {attempted} simulations)")
    lines.extend(f"  failure: {f}" for f in _failures(untraced))
    lines.append(f"digest csv={csv_digest[:16]} trace={trace_digest[:16]} "
                 f"traced==untraced: {'yes' if same else 'NO'}")
    host_s = sum(o.host_s for p in untraced for o in p)
    ref_ms = statistics.median(o.ref_s for p in untraced for o in p) * 1e3
    lines.append(f"host: reference loop {ref_ms:.2f} ms (scaled to {REF_S * 1e3:.0f} ms); "
                 f"unscaled sim_rate {pass_sim_s * len(untraced) / host_s:.4g} sim-s/s")

    if not trace:
        values = {
            "sim_rate": (pass_sim_s / pass_host_s, "sim-s/s"),
            "hop_rate": (hops_per_pass / pass_host_s, "hops/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "completed_share": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        values = layer_metrics(tracer, traced, untraced)
    for name, (value, unit) in values.items():
        lines.append(f"  {name:<44} {value:.6g} {unit}")

    t_att, t_fail = _count(traced)
    return Report(
        correct=same and golden_failed == 0,
        attempted=attempted + t_att + golden_attempted,
        failed=failed + t_fail + golden_failed,
        metrics=values,
        lines=lines,
    )


def layer_metrics(tracer: Tracer, traced: list[list[Outcome]],
                  untraced: list[list[Outcome]]) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics from the traced passes; rates and the tracing
    overhead against the untraced passes of the same run."""
    n = len(traced)
    facts: dict[str, int] = {}
    for p in traced:
        for o in p:
            for key, value in o.facts.items():
                if key == "bindings_peak":
                    facts[key] = max(facts.get(key, 0), value)
                else:
                    facts[key] = facts.get(key, 0) + value
    untraced_pass_s = pass_s(untraced)

    def calls(name):
        return (tracer.calls(name) / n, "count")

    def self_s(*names):
        return (sum(tracer.self_s(x) for x in names) / n, "s")

    def total_s(*names):
        return (sum(tracer.total_s(x) for x in names) / n, "s")

    def fact(key):
        return (facts.get(key, 0) / n, "count")

    events = tracer.events / n
    dispatch = [f"event.{k}" for k in EVENT_KINDS if k != "link-tx"]
    m: dict[str, tuple[float, str]] = {
        "kernel.events": (events, "count"),
        "kernel.events_per_s": (events / untraced_pass_s, "1/s"),
    }
    for kind in EVENT_KINDS:
        m[f"kernel.scheduled.{kind}"] = (tracer.scheduled[kind] / n, "count")
    m.update({
        "kernel.cancelled": (tracer.cancelled / n, "count"),
        "kernel.pending_peak": (tracer.pending_peak, "count"),
        "kernel.schedule_s": total_s("kernel.schedule"),
        "kernel.self_s": self_s("kernel.run_until"),
        "net.transmit.calls": calls("net.transmit"),
        "net.transmit.self_s": self_s("net.transmit"),
        "net.route_via_access.calls": calls("net.route_via_access"),
        "net.route_via_access.self_s": self_s("net.route_via_access"),
        "net.route.calls": calls("net.route"),
        "net.path_rtt.calls": calls("net.path_rtt"),
        "net.link_tx.self_s": self_s("event.link-tx"),
        "net.drops.overflow": fact("drops.overflow"),
        "net.drops.no_coverage": fact("drops.no_coverage"),
    })
    for link in QUEUE_LINKS:
        m[f"net.queue_hwm.{link}"] = (tracer.queue_hwm.get(link, 0), "B")
    sent = facts.get("sent_bytes", 0)
    m.update({
        "tcp.on_ack.calls": calls("tcp.on_ack"),
        "tcp.on_ack.self_s": self_s("tcp.on_ack"),
        "tcp.try_send.calls": calls("tcp.try_send"),
        "tcp.try_send.self_s": self_s("tcp.try_send"),
        "tcp.on_data.calls": calls("tcp.on_data"),
        "tcp.on_data.self_s": self_s("tcp.on_data"),
        "tcp.on_rto.calls": calls("tcp.on_rto"),
        "tcp.retransmits": fact("retransmits"),
        "tcp.spurious_retransmits": fact("spurious_retransmits"),
        "tcp.useful_ratio": (facts.get("inorder_bytes", 0) / sent if sent else 0.0, "ratio"),
        "tcp.oob_peak": (tracer.oob_peak, "count"),
        "mobility.route_attachment.calls": calls("mobility.route_attachment"),
        "mobility.route_attachment.self_s": self_s("mobility.route_attachment"),
        "mobility.handle_binding_update.calls": calls("mobility.handle_binding_update"),
        "mobility.bindings_peak": (facts.get("bindings_peak", 0), "count"),
        "mobility.no_binding_drops": fact("no_binding_drops"),
        "handover.plan.calls": calls("handover.plan"),
        "handover.plan_s": total_s("handover.plan"),
        "handover.count": fact("handover.count"),
        "handover.aborted": fact("handover.aborted"),
        "handover.drain_timeouts": fact("handover.drain_timeouts"),
        "handover.old_path_enqueues_after_tr1": fact("handover.old_path_enqueues_after_tr1"),
        "metrics.trace_emit.calls": calls("metrics.trace_emit"),
        "metrics.trace_emit.self_s": self_s("metrics.trace_emit"),
        "metrics.trace_lines": fact("trace_lines"),
        "metrics.trace_bytes": (facts.get("trace_bytes", 0) / n, "B"),
        "metrics.trace_text_s": total_s("metrics.trace_text"),
        "metrics.csv_rows_s": total_s("metrics.csv_rows", "metrics.write_csv"),
        "metrics.check_conservation_s": total_s("metrics.check_conservation"),
        "scenario.parse_s": total_s("scenario.parse"),
        "runner.init_s": total_s("runner.init"),
        "runner.dispatch_self_s": self_s(*dispatch),
        "trace.overhead": (pass_s(traced) / untraced_pass_s, "ratio"),
    })
    return m
