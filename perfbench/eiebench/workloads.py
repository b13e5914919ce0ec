"""One run of one workload: end to end (tracing off) or traced.

Every run returns ``{"correct", "attempted", "failed", "metrics", "report"}``.
``metrics`` maps metric names to numbers; ``report`` holds the detail a
reader needs to trust them (sample counts, phase counts, checks).  End-to-end
runs add ``samples``: the raw samples behind each timing metric.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from eiebench import paper, serve, stats
from eiebench.machine import peak_rss_mb
from eiebench.tracing import Tracer, breakdown, chrome_trace

#: Share of a serve run's ``--seconds`` given to the capacity loop; the
#: one-client loops share the rest.
CAPACITY_SHARE = 0.5


@dataclass
class Context:
    """Inputs of one run."""

    workload: str
    seed: int
    seconds: float
    src: Path
    scratch: Path
    out: Path
    params: dict


def _write_trace(ctx: Context, tracer: Tracer, origin_ns: int) -> Path:
    ctx.out.mkdir(parents=True, exist_ok=True)
    path = ctx.out / f"trace-{ctx.workload}-seed{ctx.seed}.json"
    path.write_text(json.dumps(chrome_trace(tracer.spans, origin_ns)))
    return path


def _layer_report(tracer: Tracer, wall_ns: int) -> tuple[dict, dict]:
    """(per-layer metrics derived from spans, breakdown for the report)."""
    table = breakdown(tracer.spans, wall_ns)
    metrics = {}
    for name, entry in table["names"].items():
        metrics[f"{name}_s"] = entry["self_s"]
        metrics[f"{name}_calls"] = entry["count"]
    for layer, self_s in table["layers"].items():
        metrics[f"layer.{layer}_s"] = self_s
    metrics["layer.other_s"] = table["other_s"]
    metrics["cycle_model.batch_items"] = sum(
        span.attrs["items"] for span in tracer.spans if span.name == "cycle_model.simulate_batch"
    )
    metrics["trace.wall_s"] = table["wall_s"]
    return metrics, table


def _store_hit_ratio(store) -> float:
    counters = store.stats()
    lookups = counters["hits"] + counters["misses"]
    return counters["hits"] / lookups if lookups else 0.0


# -- paper ---------------------------------------------------------------------------------


def _paper_expected(ctx: Context) -> dict:
    """Recorded digests; toy-scale runs (tests) bring their own in the parameters."""
    return ctx.params.get("digests") or paper.expected_digests(ctx.seed)


def paper_e2e(ctx: Context) -> dict:
    p = ctx.params
    experiments = tuple(p.get("experiments", paper.EXPERIMENTS))
    expected = _paper_expected(ctx)
    # Half the set-up samples come before the pass and half after it: the host's
    # contention changes over seconds, and one short window would set the median.
    setup = paper.measure_setup(ctx.src, ctx.scratch, p["setup_repeats"])
    deadline = time.perf_counter() + ctx.seconds
    walls, samples, mismatched, points = [], [], [], 0
    while not walls or time.perf_counter() < deadline:
        pass_samples: list[float] = []
        wall, digests, _ = paper.run_pass(
            ctx.seed, ctx.scratch / "store", p.get("scale"), experiments,
            registry=paper.timed_registry(pass_samples),
        )
        walls.append(wall)
        samples.extend(value * 1e3 for value in pass_samples)
        points = len(pass_samples)
        mismatched.extend(paper.mismatched(digests, expected))
    setup += paper.measure_setup(ctx.src, ctx.scratch, p["setup_repeats"])
    wall = statistics.median(walls)
    return {
        "samples": {"setup_s": setup, "lat_p50_ms": samples},
        "correct": not mismatched,
        "attempted": len(experiments) * len(walls),
        "failed": len(mismatched),
        "metrics": {
            "setup_s": statistics.median(setup),
            "ops_per_s": points / wall,
            "lat_p50_ms": stats.percentile(samples, 50.0),
            "peak_rss_mb": peak_rss_mb(),
        },
        "report": {
            "paper_s": walls,
            "points_per_pass": points,
            "setup_s": setup,
            "point_latency_ms": stats.summarize(samples),
            "mismatched_experiments": mismatched,
        },
    }


def paper_traced(ctx: Context) -> dict:
    p = ctx.params
    experiments = tuple(p.get("experiments", paper.EXPERIMENTS))
    expected = _paper_expected(ctx)
    untraced_wall, digests, _ = paper.run_pass(
        ctx.seed, ctx.scratch / "store", p.get("scale"), experiments
    )
    mismatched = paper.mismatched(digests, expected)
    tracer = Tracer()
    tracer.install()
    try:
        origin = time.perf_counter_ns()
        traced_wall, digests, store = paper.run_pass(
            ctx.seed, ctx.scratch / "store", p.get("scale"), experiments,
            around=lambda name: tracer.span(f"experiments.{name}"),
        )
        wall_ns = time.perf_counter_ns() - origin
    finally:
        tracer.uninstall()
    mismatched += paper.mismatched(digests, expected)
    metrics, table = _layer_report(tracer, wall_ns)
    for name in experiments:  # whole experiments: inclusive time, not self time
        metrics[f"experiments.{name}_s"] = table["names"][f"experiments.{name}"]["total_s"]
    builds = [span for span in tracer.spans if span.name == "workloads.build"]
    counted = {span.parent for span in tracer.spans if span.name == "compression.entry_counts"}
    performed = [span for span in builds if span.span_id in counted]
    metrics["workloads.builds_performed"] = len(performed)
    metrics["workloads.unique_build_ratio"] = (
        len({span.attrs["key"] for span in performed}) / len(performed) if performed else 1.0
    )
    metrics["store.hit_ratio"] = _store_hit_ratio(store)
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1.0
    trace_path = _write_trace(ctx, tracer, origin)
    return {
        "correct": not mismatched,
        "attempted": 2 * len(experiments),
        "failed": len(mismatched),
        "metrics": metrics,
        "report": {
            "breakdown": table,
            "untraced_paper_s": untraced_wall,
            "traced_paper_s": traced_wall,
            "trace_file": str(trace_path),
            "mismatched_experiments": mismatched,
        },
    }


# -- serve ---------------------------------------------------------------------------------


@dataclass
class DaemonRuns:
    """What the daemon phases of one serve run measured."""

    setups: list[float]
    rss: list[float]
    capacity: serve.Phase
    one_client: list[serve.Phase]
    open_loop: serve.Phase | None
    checked: int
    mismatched: dict[str, list[int]]

    @property
    def failed_checks(self) -> int:
        """Sampled vectors that failed the served or the digest comparison."""
        return len(set(self.mismatched["served"]) | set(self.mismatched["digest"]))

    @property
    def phases(self) -> list[serve.Phase]:
        extra = [self.open_loop] if self.open_loop else []
        return [self.capacity, *self.one_client, *extra]


def _serve_daemon_phases(ctx: Context, repeats: int, seconds: float, model, inputs, ledger,
                         open_loop_s: float = 0.0) -> DaemonRuns:
    """Spawn the daemon ``repeats`` times, measuring set-up and one-client latency on each.

    The last daemon also carries the capacity phase (``CAPACITY_SHARE`` of
    ``seconds``) and the optional open loop; the offline check then runs
    against its store.
    """
    p = ctx.params
    setups, rss, one_client = [], [], []
    min_samples = -(-stats.min_samples(p["one_client_percentile"]) // repeats)
    capacity_s = seconds * CAPACITY_SHARE
    for attempt in range(repeats):
        last = attempt == repeats - 1
        store_dir = ctx.scratch / f"daemon-store-{attempt}"
        daemon = serve.Daemon.spawn(ctx.src, p, store_dir, ctx.scratch / "daemon.log")
        try:
            setups.append(daemon.setup_s)
            measured, description = asyncio.run(serve.drive_daemon(
                daemon, p, inputs, ctx.seed, ledger,
                capacity_s=capacity_s if last else 0.0,
                one_client_s=(seconds - capacity_s) / repeats,
                min_samples=min_samples,
                open_loop_s=open_loop_s if last else 0.0,
            ))
            rss.append(peak_rss_mb(daemon.pid))
        finally:
            daemon.stop()
        by_name = {phase.name: phase for phase in measured}
        one_client.append(by_name["one_client"])
    if description["spec"] != serve.model_spec(p).to_dict():
        raise RuntimeError(f"daemon serves {description['spec']}, expected {p['model']}")
    expected = p.get("output_digests") or serve.expected_digests(ctx.workload, ctx.seed)
    checked, mismatched = serve.offline_check(
        model, description, store_dir, inputs, ledger, expected
    )
    return DaemonRuns(
        setups, rss, by_name["capacity"], one_client, by_name.get("open_loop"), checked,
        mismatched,
    )


def _prepare_serve(ctx: Context):
    from repro.models.registry import ModelRegistry

    model = ModelRegistry.build(serve.model_spec(ctx.params))
    return model, serve.request_inputs(model, ctx.seed)


def _phase_report(phases) -> dict:
    return {
        "sent": sum(phase.sent for phase in phases),
        "completed": sum(phase.completed for phase in phases),
        "rejected": sum(phase.rejected for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "late": sum(phase.late for phase in phases),
        "rate_rps": [phase.rate_rps for phase in phases],
        "latency_ms": stats.summarize(_pooled(phases, "latencies_ms")),
        "lag_ms": stats.summarize(_pooled(phases, "lags_ms")),
        "mean_batch": statistics.fmean(_pooled(phases, "batch_sizes") or [0]),
        "first_error": next((phase.first_error for phase in phases if phase.first_error), None),
    }


def _pooled(phases, attribute: str) -> list:
    return [value for phase in phases for value in getattr(phase, attribute)]


def _tail(samples: list[float]) -> float:
    """The highest supported percentile of ``samples``, else their median."""
    summary = stats.summarize(samples)
    return summary["tail"] if summary["q"] else summary["median"]


def _lag_valid(open_loop) -> bool:
    """Whether the open-loop generator kept its schedule: lag tail under half the p50 latency."""
    return _tail(open_loop.lags_ms) <= 0.5 * stats.percentile(open_loop.latencies_ms, 50.0)


def _serve_outcome(runs: DaemonRuns, ledger, extra_phases=()) -> dict:
    phases = [*runs.phases, *extra_phases]
    return {
        "correct": runs.checked > 0 and runs.failed_checks == 0 and ledger.mismatched == 0,
        "attempted": sum(phase.sent for phase in phases) + runs.checked,
        "failed": sum(phase.rejected + phase.failed for phase in phases)
        + runs.failed_checks + ledger.mismatched,
    }


def serve_e2e(ctx: Context) -> dict:
    p = ctx.params
    model, inputs = _prepare_serve(ctx)
    ledger = serve.OutputLedger()
    runs = _serve_daemon_phases(ctx, p["setup_repeats"], ctx.seconds, model, inputs, ledger)
    latencies = _pooled(runs.one_client, "latencies_ms")
    return {
        "samples": {"setup_s": runs.setups, "lat_p50_ms": latencies},
        **_serve_outcome(runs, ledger),
        "metrics": {
            "setup_s": statistics.median(runs.setups),
            "ops_per_s": runs.capacity.rate_rps,
            "lat_p50_ms": stats.percentile(latencies, 50.0),
            "peak_rss_mb": statistics.median(runs.rss),
        },
        "report": {
            "setup_s": runs.setups,
            "peak_rss_mb": runs.rss,
            "capacity": _phase_report([runs.capacity]),
            "one_client": _phase_report(runs.one_client),
            "responses_compared": ledger.checked,
            "offline_checked": runs.checked,
            "offline_mismatched": runs.mismatched,
        },
    }


async def _inproc_phases(ctx: Context, model, inputs, ledger, tracer: Tracer, seconds: float):
    """Traced start + TCP loop, then untraced TCP and direct loops, in this process."""
    from repro.core.config import EIEConfig
    from repro.serve import AsyncServeClient, BatchPolicy, Server, start_daemon
    from repro.store import ArtifactStore

    p = ctx.params
    limit, warmup = p["latency_limit_s"], p["warmup_s"]
    server = Server(
        [serve.model_spec(p)],
        engine=p["engine"],
        config=EIEConfig(num_pes=p["pes"], fifo_depth=8),
        policy=BatchPolicy(max_batch=p["max_batch"]),
        store=ArtifactStore(ctx.scratch / "inproc-store"),
    )
    tracer.install()
    listener = client = None
    try:
        origin = time.perf_counter_ns()
        await server.start()
        listener = await start_daemon(server)
        host, port = listener.sockets[0].getsockname()[:2]
        client = await AsyncServeClient.connect(host, port)

        def over_tcp(vector):
            return client.infer(model.name, vector)

        traced = await serve.closed_loop(
            "inproc_tcp_traced", over_tcp, inputs, ledger, p["concurrency"], warmup, seconds, limit
        )
        wall_ns = time.perf_counter_ns() - origin
        tracer.uninstall()
        untraced = await serve.closed_loop(
            "inproc_tcp", over_tcp, inputs, ledger, p["concurrency"], warmup, seconds, limit
        )
        direct = await serve.closed_loop(
            "inproc_direct", lambda vector: server.submit(model.name, vector), inputs, ledger,
            p["concurrency"], warmup, seconds, limit,
        )
        hit_ratio = _store_hit_ratio(server.session.store)
    finally:
        tracer.uninstall()
        if client is not None:
            await client.close()
        if listener is not None:
            listener.close()
            await listener.wait_closed()
        await server.close()
    return [traced, untraced, direct], origin, wall_ns, hit_ratio


def serve_traced(ctx: Context) -> dict:
    p = ctx.params
    model, inputs = _prepare_serve(ctx)
    ledger = serve.OutputLedger()
    half = ctx.seconds / 2
    open_loop_s = half / 2 if "open_loop_rps" in p else 0.0
    runs = _serve_daemon_phases(ctx, 1, half, model, inputs, ledger, open_loop_s)
    capacity = runs.capacity
    tracer = Tracer()
    inproc, origin, wall_ns, hit_ratio = asyncio.run(
        _inproc_phases(ctx, model, inputs, ledger, tracer, half)
    )
    traced, untraced, direct = inproc
    metrics, table = _layer_report(tracer, wall_ns)
    metrics.update({
        "serve.queue_wait_ms": stats.percentile(capacity.queue_wait_ms, 50.0),
        "serve.service_ms": stats.percentile(capacity.service_ms, 50.0),
        "serve.wire_ms": stats.percentile(capacity.wire_ms, 50.0),
        "serve.mean_batch": statistics.fmean(capacity.batch_sizes),
        "serve.inproc_capacity_rps": direct.rate_rps,
        "serve.tcp_cost": 1.0 - capacity.rate_rps / direct.rate_rps,
        "store.hit_ratio": hit_ratio,
        "trace.overhead": 1.0 - traced.rate_rps / untraced.rate_rps,
    })
    report = {}
    if runs.open_loop is not None:
        open_loop = runs.open_loop
        metrics.update({
            "loadgen.lag_ms": _tail(open_loop.lags_ms),
            "loadgen.open_p50_ms": stats.percentile(open_loop.latencies_ms, 50.0),
            "loadgen.open_tail_ms": _tail(open_loop.latencies_ms),
        })
        report["generator_on_schedule"] = _lag_valid(open_loop)
    trace_path = _write_trace(ctx, tracer, origin)
    phases = [*runs.phases, *inproc]
    return {
        **_serve_outcome(runs, ledger, inproc),
        "metrics": metrics,
        "report": {
            "breakdown": table,
            "capacity_rps": capacity.rate_rps,
            "phases": {phase.name: _phase_report([phase]) for phase in phases},
            **report,
            "trace_file": str(trace_path),
            "offline_checked": runs.checked,
            "offline_mismatched": runs.mismatched,
        },
    }


RUNS = {
    ("paper", False): paper_e2e,
    ("paper", True): paper_traced,
    ("serve_alexnet", False): serve_e2e,
    ("serve_alexnet", True): serve_traced,
}
