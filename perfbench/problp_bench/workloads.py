"""The four workloads: set-up, timed run, answer checks and metrics.

Each ``run_*`` function returns a :class:`Outcome`: the metrics for the
result line plus everything the printed report shows. Untraced runs
(``trace=False``) give the end-to-end metrics; traced runs give the
per-layer ones.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fleet, inputs, replay, served
from .design import PHASES, design_pass, warm_circuits
from .report import provenance
from .stats import (
    Tally,
    median,
    percentile,
    samples_needed,
    tail_supported,
    window_slices,
)

UNITS = {
    "memo.hit_ratio": "ratio",
    "native.build_s": "s",
    "dispatch.native_share": "ratio",
    "dispatch.fallbacks": "count",
    "trace.overhead_pct": "%",
    "trace.residual_pct": "%",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "us" if name.endswith("_us") else "s"


@dataclass
class Outcome:
    metrics: dict
    tally: Tally
    correct: bool
    provenance: dict
    notes: dict = field(default_factory=dict)
    tables: list = field(default_factory=list)
    invalid: str | None = None


@dataclass
class Context:
    root: Path
    workdir: Path
    plan: dict
    seed: int
    seconds: float

    def params(self, workload: str) -> dict:
        return self.plan["workloads"][workload]


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class SessionCache:
    """Reference sessions built in this process, one per circuit."""

    def __init__(self) -> None:
        self._sessions: dict = {}

    def __call__(self, name: str):
        if name not in self._sessions:
            from repro.ac.transform import binarize
            from repro.bn.networks import get_network
            from repro.compile import compile_network
            from repro.engine import InferenceSession

            circuit = compile_network(get_network(name)).circuit
            if not circuit.is_binary:
                circuit = binarize(circuit).circuit
            self._sessions[name] = InferenceSession(circuit)
        return self._sessions[name]


# -- served workloads ---------------------------------------------------------


@dataclass
class Load:
    records: list
    elapsed: float
    lags: list = field(default_factory=list)
    missing: int = 0


class ServedWorkload:
    """What differs between the served workloads: inputs and the loop."""

    name = ""
    circuit = ""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.params = ctx.params(self.name)
        self.queries = self.make_queries()

    def make_queries(self) -> list:
        raise NotImplementedError

    def load(self, host: str, port: int, seconds: float, trace: bool) -> Load:
        raise NotImplementedError


class LoneEval(ServedWorkload):
    name = "lone_eval"
    circuit = "alarm"

    def make_queries(self):
        return inputs.lone_eval_queries(self.ctx.seed, self.params)

    def load(self, host, port, seconds, trace):
        wire = served.Wire(host, port)
        try:
            records, elapsed = served.closed_loop(
                wire, self.queries, range(len(self.queries)), seconds, 1, trace
            )
        finally:
            wire.close()
        return Load(records, elapsed)


class OpenMix(ServedWorkload):
    name = "open_mix"
    circuit = "alarm"

    def make_queries(self):
        return inputs.open_mix_queries(self.ctx.seed, self.params)

    def load(self, host, port, seconds, trace):
        offsets = inputs.poisson_schedule(
            self.ctx.seed, self.params["rate_per_s"], seconds
        )
        wire = served.Wire(host, port)
        try:
            records, lags, elapsed, missing = served.open_loop(
                wire, self.queries, offsets, trace
            )
        finally:
            wire.close()
        return Load(records, elapsed, lags, missing)


class ThetaTiles(ServedWorkload):
    name = "theta_tiles"
    circuit = "landscape"

    def make_queries(self):
        return inputs.theta_tile_queries(self.ctx.seed, self.params)

    def load(self, host, port, seconds, trace):
        records, elapsed = served.theta_loop(
            host, port, self.queries, seconds,
            self.params["connections"], self.params["in_flight"], trace,
        )
        return Load(records, elapsed)


SERVED = {cls.name: cls for cls in (LoneEval, OpenMix, ThetaTiles)}


def _start_server(ctx: Context, workload: ServedWorkload, label: str):
    """Spawn and warm one server; returns it with its set-up seconds."""
    server = fleet.ServerProcess(ctx.root, ctx.workdir, label)
    started = time.perf_counter()
    server.start()
    try:
        wire = served.Wire(server.host, server.port)
        try:
            served.warm_up(wire, workload.queries)
        finally:
            wire.close()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def _scrape(server) -> dict:
    wire = served.Wire(server.host, server.port)
    try:
        response = wire.request({"op": "metrics"})
    finally:
        wire.close()
    if not response.get("ok"):
        raise RuntimeError(f"metrics op failed: {response.get('error')}")
    return fleet.counters(response["result"]["families"])


def _check(workload, records, tally, sessions):
    backends = served.check_records(records, workload.queries, sessions, tally)
    invalid = None
    if backends != ["native"]:
        invalid = (
            f"the auto backend did not resolve to native for every answer: "
            f"{', '.join(backends) or 'no answers'}"
        )
    return backends, invalid


def run_served(ctx: Context, name: str, trace: bool) -> Outcome:
    workload = SERVED[name](ctx)
    sessions = SessionCache()
    if trace:
        return _run_served_traced(ctx, workload, sessions)
    repeats = int(ctx.plan["setup_repeats"])
    setups = []
    server = None
    for attempt in range(repeats):
        if server is not None:
            server.stop()
        server, seconds = _start_server(ctx, workload, f"setup{attempt}")
        setups.append(seconds)
    try:
        with served.collector_paused():
            load = workload.load(server.host, server.port, ctx.seconds, trace=False)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    os.environ["PROBLP_NATIVE_CACHE"] = str(server.cache)
    tally = Tally()
    tally.attempt(len(load.records) + load.missing)
    tally.fail("no_answer", load.missing)
    backends, invalid = _check(workload, load.records, tally, sessions)
    ok = [r for r in load.records if r.response.get("ok")]
    latencies = [r.latency_us for r in ok] or [0.0]
    tails, rates = _windowed(ctx, workload, ok)
    metrics = {
        "setup_s": _metric(median(setups), "s"),
        "latency_p50_us": _metric(percentile(latencies, 50), "us"),
        "rows_per_s": _metric(median(rates), "1/s"),
        "ok_ratio": _metric(tally.ok_ratio, "ratio"),
        "peak_rss_mb": _metric(peak_rss, "MB"),
    }
    notes = {
        "setup_s": f"median of {repeats}: "
        + ", ".join(f"{s:.3f}" for s in setups),
        "latency_p50_us": f"tail (not bounded): p95 {median(tails):.1f} us as "
        f"the median over {len(tails)} windows of {ctx.plan['window_s']} s, "
        f"whole-run p95 {percentile(latencies, 95):.1f} us, "
        + _tail_note(latencies),
        "rows_per_s": f"median over {len(rates)} windows; whole run "
        f"{sum(workload.queries[r.query].rows for r in ok) / load.elapsed:.1f}",
        "ok_ratio": f"fail_ratio {tally.fail_ratio:.6f} "
        f"({tally.failed} of {tally.attempted}: {dict(tally.reasons)})",
    }
    if load.lags:
        notes["latency_p50_us"] = (
            f"timed from due time (generator lag p99 "
            f"{percentile(load.lags, 99):.0f} us); " + notes["latency_p50_us"]
        )
    stamp = provenance(ctx.root, ",".join(backends), None)
    return Outcome(metrics, tally, tally.failed == 0 and not invalid, stamp,
                   notes, invalid=invalid)


def _windowed(ctx, workload, records) -> tuple[list[float], list[float]]:
    """Per window of the timed run: p95 latency and rows answered per second.

    Medians over windows keep a few seconds of a slowed-down machine from
    setting a run's throughput and printed tail; windows with too few
    answers for a supported p95 give no tail value.
    """
    width = float(ctx.plan["window_s"])
    count = max(1, int(ctx.seconds // width))
    start = min(r.due for r in records)
    slices = window_slices([r.received for r in records], start, width, count)
    tails, rates = [], []
    for members in slices:
        rates.append(sum(workload.queries[records[i].query].rows for i in members) / width)
        if tail_supported(len(members), 95):
            tails.append(percentile([records[i].latency_us for i in members], 95))
    if not tails:
        tails = [percentile([r.latency_us for r in records], 95)]
    return tails, rates


def _per_layer(
    layer_values: dict,
    memo_view: dict,
    counters: dict,
    p50_untraced: float,
    p50_traced: float,
    residual: float,
) -> dict:
    """The per-layer metrics of the result line, in ``BENCHMARK.json`` order."""
    per_layer = {name: layer_values[name] for name in replay.REPLAY_LAYERS}
    per_layer.update(
        {
            "memo.hit_ratio": fleet.memo_hit_ratio(memo_view),
            "native.build_s": counters["native.build_s"],
            "dispatch.native_share": (
                counters["dispatch.native"] / counters["dispatch.total"]
                if counters["dispatch.total"] else 0.0
            ),
            "dispatch.fallbacks": counters["dispatch.fallbacks"],
            "trace.overhead_pct": 100.0 * (p50_traced - p50_untraced) / p50_untraced,
            "trace.residual_pct": 100.0 * residual / p50_traced,
        }
    )
    return per_layer


def _tail_note(latencies: list) -> str:
    """Sample count, and the p99 where the sample supports it."""
    count = len(latencies)
    if not tail_supported(count, 95):
        return (
            f"{count} samples: fewer than the {samples_needed(95)} that leave "
            f"ten beyond p95"
        )
    if not tail_supported(count, 99):
        return f"{count} samples; too few for p99"
    return f"{count} samples; p99 {percentile(latencies, 99):.1f} us (not bounded)"


def _run_served_traced(ctx, workload, sessions) -> Outcome:
    from repro.specs import parse_format_spec

    server, setup_s = _start_server(ctx, workload, "traced")
    segment = ctx.seconds / 4.0
    untraced, traced, lags = [], [], []
    missing = 0
    try:
        before = _scrape(server)
        for index in range(4):
            is_traced = index % 2 == 1
            with served.collector_paused():
                load = workload.load(server.host, server.port, segment, is_traced)
            (traced if is_traced else untraced).extend(load.records)
            lags.extend(load.lags)
            missing += load.missing
        after = _scrape(server)
    finally:
        server.stop()
    os.environ["PROBLP_NATIVE_CACHE"] = str(server.cache)
    records = untraced + traced
    tally = Tally()
    tally.attempt(len(records) + missing)
    tally.fail("no_answer", missing)
    backends, invalid = _check(workload, records, tally, sessions)
    counters = fleet.diff(after, before)
    counters["native.build_s"] = before["native.build_s"]

    spans, retries = served.span_layers(traced)
    # Send-to-answer wall time: the interval the span tree decomposes.
    client_traced = [r.wall_us for r in traced if r.response.get("ok")]
    client_untraced = [r.wall_us for r in untraced if r.response.get("ok")]
    p50_traced = percentile(client_traced, 50)
    p50_untraced = percentile(client_untraced, 50)

    # Replay at the batch sizes the served run reported.
    session = sessions(workload.circuit)
    fixed = parse_format_spec("fixed:1:15")
    flt = parse_format_spec("float:10:15")
    kinds = sorted(
        key.split(".", 2)[2] for key in counters if key.startswith("batch.flushes.")
    )
    mean_batch = {
        kind: counters[f"batch.requests.{kind}"] / counters[f"batch.flushes.{kind}"]
        for kind in kinds
        if counters[f"batch.flushes.{kind}"] > 0
    }
    queries = workload.queries
    if isinstance(workload, ThetaTiles):
        rows_per_flush = round(
            mean_batch.get("theta", 1.0) * workload.params["tile_rows"]
        )
        pairs = [(q.evidence, row) for q in queries for row in q.theta]
        chunks = replay.chunk(pairs, rows_per_flush, limit=4)
        batches = [[evidence for evidence, _ in c] for c in chunks]
        thetas = [np.asarray([row for _, row in c]) for c in chunks]
        layer_values = replay.replay_layers(
            session, batches, thetas, fixed, flt, theta_kernels=True
        )
        tiles = {}
        for q in queries:
            tiles.setdefault(q.fmt, []).append(
                ([q.evidence] * q.rows, np.asarray(q.theta))
            )
        combo_us = {
            ("theta_batch", fmt): replay.served_theta_session_us(
                session, group, parse_format_spec(fmt) if fmt else None
            )
            for fmt, group in tiles.items()
        }
    else:
        size = round(max(mean_batch.values(), default=1.0))
        evidence = [q.evidence for q in queries]
        batches = replay.chunk(evidence, size)
        base = np.asarray(session.tape.param_values, dtype=np.float64)
        thetas = [np.tile(base, (len(batch), 1)) for batch in batches]
        layer_values = replay.replay_layers(
            session, batches, thetas, fixed, flt, theta_kernels=False
        )
        combo_us = {}
        for q in queries:
            key = (q.op, q.fmt)
            if key not in combo_us:
                kind_size = round(mean_batch.get(q.op, 1.0))
                group = [p.evidence for p in queries if (p.op, p.fmt) == key]
                combo_us[key] = replay.served_session_us(
                    session,
                    replay.chunk(group, kind_size),
                    q.op,
                    parse_format_spec(q.fmt) if q.fmt else None,
                )
    build = [
        execute - combo_us[(queries[r.query].op, queries[r.query].fmt)]
        for r, execute in zip(
            (r for r in traced if r.response.get("ok")
             and r.response["result"].get("timing")),
            spans["batch.execute_us"],
        )
    ]
    lines = [
        inputs.wire_line(q, index) for index, q in enumerate(queries[:64])
    ]
    protocol = replay.protocol_layers(
        lines, [r.response for r in records[:64]]
    )

    span_p50 = {name: percentile(values, 50) for name, values in spans.items()}
    residual = p50_traced - sum(span_p50.values())
    overhead_pct = 100.0 * (p50_traced - p50_untraced) / p50_untraced
    # Memo lookups over the server's life: its caches fill at set-up.
    per_layer = _per_layer(
        layer_values, after, counters, p50_untraced, p50_traced, residual
    )
    rows = [
        {"name": name, "p50": percentile(values, 50),
         "p99": percentile(values, 99), "n": len(values), "unit": "us"}
        for name, values in spans.items()
    ]
    rows.append({"name": "build.us", "p50": percentile(build, 50),
                 "p99": percentile(build, 99), "n": len(build), "unit": "us"})
    for kind, mean in sorted(mean_batch.items()):
        flushes = counters[f"batch.flushes.{kind}"]
        rows.append({"name": f"batch.rows_mean[{kind}]", "p50": mean,
                     "n": int(flushes), "unit": "requests/flush"})
        rows.append({"name": f"batch.flushes[{kind}]", "p50": flushes,
                     "unit": "count"})
        count = counters.get(f"executor.count.{kind}", 0.0)
        if count:
            rows.append({
                "name": f"executor.mean_us[{kind}]",
                "p50": 1e6 * counters[f"executor.sum_s.{kind}"] / count,
                "n": int(count), "unit": "us (mean)",
            })
    rows.append({"name": "admission.overloaded",
                 "p50": counters["admission.overloaded"], "unit": "count"})
    rows.append({"name": "front.retries", "p50": retries, "unit": "count"})
    for cache in fleet.MEMO_CACHES:
        lookups = sum(after[f"memo.{cache}.{o}"] for o in ("hit", "miss", "stale"))
        if lookups:
            rows.append({"name": f"memo.hit_ratio[{cache}]",
                         "p50": after[f"memo.{cache}.hit"] / lookups,
                         "n": int(lookups), "unit": "ratio"})
    for name, value in protocol.items():
        rows.append({"name": name, "p50": value, "unit": "us"})
    for name in replay.REPLAY_LAYERS:
        rows.append({"name": name, "p50": layer_values[name], "unit": "us"})
    for (op, fmt), value in sorted(combo_us.items(), key=str):
        rows.append({"name": f"session.served[{op},{fmt or 'f64'}]",
                     "p50": value, "unit": "us"})
    if lags:
        rows.append({"name": "gen.lag_p99_us", "p50": percentile(lags, 50),
                     "p99": percentile(lags, 99), "n": len(lags), "unit": "us"})
    for name in ("memo.hit_ratio", "native.build_s", "dispatch.native_share",
                 "dispatch.fallbacks"):
        rows.append({"name": name, "p50": per_layer[name], "unit": unit_of(name)})
    rows.append({"name": "client.p50_untraced_us", "p50": p50_untraced,
                 "n": len(client_untraced), "unit": "us"})
    rows.append({"name": "client.p50_traced_us", "p50": p50_traced,
                 "n": len(client_traced), "unit": "us"})
    rows.append({"name": "trace.overhead_pct", "p50": overhead_pct, "unit": "%"})
    rows.append({"name": "trace.residual_us", "p50": residual, "unit": "us"})
    rows.append({"name": "setup_s (one cold start)", "p50": setup_s, "unit": "s"})

    metrics = {name: _metric(value, unit_of(name)) for name, value in per_layer.items()}
    stamp = provenance(ctx.root, ",".join(backends), None)
    outcome = Outcome(metrics, tally, tally.failed == 0 and not invalid, stamp,
                      invalid=invalid)
    outcome.tables.append((f"{workload.name} layers (traced run)", rows))
    return outcome


# -- design flow ----------------------------------------------------------------


def _design_setup(ctx: Context, networks: list, label: str) -> tuple[float, Path]:
    """Seconds from spawning a fresh interpreter to warm circuits."""
    cache = ctx.workdir / f"{label}-native"
    cache.mkdir(parents=True)
    env = fleet.child_env(ctx.root, cache, ctx.workdir)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ctx.root / "src"), str(ctx.root / "perfbench")]
    )
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "problp_bench.warmup", *networks],
        cwd=ctx.root, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - started
        _, errors = process.communicate(timeout=60)
    except BaseException:
        process.kill()
        process.wait()
        raise
    if line.strip() != "ready" or process.returncode != 0:
        raise RuntimeError(f"design set-up failed: {errors[-2000:]}")
    return elapsed, cache


#: Design-flow peak RSS is read after this many timed passes, so it
#: measures a fixed amount of work: the process grows with every pass,
#: and a slower machine would otherwise report less memory.
RSS_PASSES = 3


def run_design(ctx: Context, trace: bool) -> Outcome:
    from repro.obs.metrics import REGISTRY

    params = ctx.params("design_flow")
    specs = [tuple(spec) for spec in params["specs"]]
    networks = sorted({spec[0] for spec in specs})
    batches = inputs.design_batches(ctx.seed, params)
    tally = Tally()
    setups = []
    if not trace:
        for attempt in range(int(ctx.plan["setup_repeats"])):
            seconds, cache = _design_setup(ctx, networks, f"setup{attempt}")
            setups.append(seconds)
        os.environ["PROBLP_NATIVE_CACHE"] = str(cache)
    before = fleet.counters(REGISTRY.collect())
    warm_circuits(networks)
    built = fleet.counters(REGISTRY.collect())
    design_pass(specs, batches, tally, traced=trace)  # warm pass, checked too

    passes, traced_passes, phase_log, designs = [], [], [], []
    utilization = 0.0
    rows = 0
    spent = 0.0
    count = 0
    peak_kb = 0
    while spent < ctx.seconds or count < (4 if trace else 3):
        traced = trace and count % 2 == 1
        gc.collect()  # each pass starts without the previous pass's garbage
        started = time.perf_counter()
        phases, worst, pass_rows, design_times = design_pass(
            specs, batches, tally, traced
        )
        elapsed = time.perf_counter() - started
        spent += elapsed
        count += 1
        utilization = max(utilization, worst)
        (traced_passes if traced else passes).append(elapsed)
        if traced:
            phase_log.append(phases)
        if not trace:
            rows += pass_rows
            designs.extend(design_times)
        if count == RSS_PASSES:
            peak_kb = fleet.peak_rss_kb()
    after = fleet.counters(REGISTRY.collect())

    alarm = SessionCache()("alarm")
    backend = alarm.backend
    invalid = None
    if backend != "native":
        invalid = (
            f"the auto backend resolved to numpy: "
            f"{alarm.backend_fallback_reason}"
        )
    stamp = provenance(ctx.root, backend, alarm.backend_fallback_reason)

    if not trace:
        design_us = [seconds * 1e6 for seconds in designs]
        metrics = {
            "setup_s": _metric(median(setups), "s"),
            "latency_p50_us": _metric(percentile(passes, 50) * 1e6, "us"),
            "rows_per_s": _metric(rows / len(passes) / percentile(passes, 50), "1/s"),
            "ok_ratio": _metric(tally.ok_ratio, "ratio"),
            "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
        }
        notes = {
            "setup_s": f"median of {len(setups)}: "
            + ", ".join(f"{s:.3f}" for s in setups),
            "latency_p50_us": f"design_s: one pass of {len(specs)} designs, "
            f"p50 of {len(passes)} passes; single designs (not bounded): p50 "
            f"{percentile(design_us, 50):.0f} us, p95 "
            f"{percentile(design_us, 95):.0f} us, " + _tail_note(design_us),
            "ok_ratio": f"fail_ratio {tally.fail_ratio:.6f} "
            f"({tally.failed} of {tally.attempted}: {dict(tally.reasons)}); "
            f"bound utilization max {utilization:.4f}",
            "peak_rss_mb": f"after the warm pass and {RSS_PASSES} timed passes; "
            f"after all {count}: {fleet.peak_rss_kb() / 1024.0:.1f} MB",
        }
        return Outcome(metrics, tally, tally.failed == 0 and not invalid,
                       stamp, notes, invalid=invalid)

    # Traced: phase table, replay on Alarm's validation batch, counters.
    from repro.specs import parse_format_spec

    fixed = parse_format_spec("fixed:1:15")
    flt = parse_format_spec("float:10:15")
    batch = batches["alarm"]
    base = np.asarray(alarm.tape.param_values, dtype=np.float64)
    theta = np.tile(base, (len(batch), 1))
    layer_values = replay.replay_layers(alarm, [batch], [theta], fixed, flt, False)
    counters = fleet.diff(after, built)
    counters["native.build_s"] = built["native.build_s"] - before["native.build_s"]
    p50_untraced = percentile(passes, 50)
    p50_traced = percentile(traced_passes, 50)
    phase_p50 = {
        name: percentile([log[name] for log in phase_log], 50) for name in PHASES
    }
    residual = p50_traced - sum(phase_p50.values())
    per_layer = _per_layer(
        layer_values, fleet.diff(after, before), counters,
        p50_untraced, p50_traced, residual,
    )
    rows = [
        {"name": name, "p50": phase_p50[name],
         "p99": percentile([log[name] for log in phase_log], 99),
         "n": len(phase_log), "unit": "s per pass"}
        for name in PHASES
    ]
    rows.append({"name": "bound.utilization_max", "p50": utilization, "unit": "ratio"})
    for name in replay.REPLAY_LAYERS:
        rows.append({"name": name, "p50": layer_values[name],
                     "unit": f"us at batch {len(batch)}"})
    for name in ("memo.hit_ratio", "native.build_s", "dispatch.native_share",
                 "dispatch.fallbacks", "trace.overhead_pct"):
        rows.append({"name": name, "p50": per_layer[name], "unit": unit_of(name)})
    rows.append({"name": "design.p50_untraced_s", "p50": p50_untraced,
                 "n": len(passes), "unit": "s"})
    rows.append({"name": "design.p50_traced_s", "p50": p50_traced,
                 "n": len(traced_passes), "unit": "s"})
    rows.append({"name": "trace.residual_s", "p50": residual, "unit": "s"})
    metrics = {name: _metric(value, unit_of(name)) for name, value in per_layer.items()}
    outcome = Outcome(metrics, tally, tally.failed == 0 and not invalid, stamp,
                      invalid=invalid)
    outcome.tables.append(("design_flow layers (timed per public call)", rows))
    return outcome
