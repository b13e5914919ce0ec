"""Tests of the benchmark itself, at toy scale.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from eiebench import paper, serve, stats, tracing  # noqa: E402
from eiebench.tracing import Span, Tracer, breakdown, self_times  # noqa: E402
from eiebench.workloads import RUNS, Context  # noqa: E402

SRC = HERE.parent.parent / "src"


def span(name, start, end, span_id, parent=None, tid=1):
    return Span(name, start, end, span_id, parent, span_id if parent is None else 0, tid)


# -- self time --------------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("engine.run", 0, 100, 1),
        span("cycle_model.simulate", 10, 30, 2, parent=1),
        span("cycle_model.simulate", 20, 50, 3, parent=1),  # overlaps its sibling
        span("store.load", 40, 45, 4, parent=3),
    ]
    own = self_times(spans)
    assert own == {1: 60, 2: 20, 3: 25, 4: 5}


def test_self_time_clips_children_to_the_parent():
    spans = [span("serve.submit", 0, 10, 1), span("serve.dispatch", 5, 30, 2, parent=1)]
    assert self_times(spans)[1] == 5


def test_breakdown_layers_plus_other_equal_wall():
    spans = [
        span("experiments.fig6", 0, 400, 1),
        span("workloads.build", 50, 250, 2, parent=1),
        span("compression.entry_counts", 60, 200, 3, parent=2),
        span("experiments.fig7", 500, 900, 4),
    ]
    table = breakdown(spans, 1000)
    assert table["layers"] == pytest.approx(
        {"experiments": 600e-9, "workloads": 60e-9, "compression": 140e-9}
    )
    assert table["other_s"] == pytest.approx(200e-9)
    assert sum(table["layers"].values()) + table["other_s"] == pytest.approx(table["wall_s"])
    assert table["names"]["workloads.build"] == pytest.approx(
        {"self_s": 60e-9, "total_s": 200e-9, "count": 1}
    )


def test_chrome_trace_events():
    trace = tracing.chrome_trace([span("store.load", 2000, 5000, 1)], origin_ns=1000)
    (event,) = trace["traceEvents"]
    assert (event["ph"], event["ts"], event["dur"], event["cat"]) == ("X", 1.0, 3.0, "store")


def test_tracer_wraps_every_binding_and_restores_them():
    from repro.compression import csc
    from repro.workloads import generator

    original = csc.interleaved_entry_counts
    tracer = Tracer()
    tracer.install([
        ("compression.entry_counts", "repro.compression.csc", "interleaved_entry_counts", None),
        ("workloads.build", "repro.workloads.generator", "WorkloadBuilder.build",
         tracing._build_key),
    ])
    try:
        assert generator.interleaved_entry_counts is not original
        from repro.workloads import get_benchmark

        layer = get_benchmark("Alex-8").scaled(64)
        builder = generator.WorkloadBuilder()
        with tracer.span("experiments.test"):
            builder.build(layer, 4)
            builder.build(layer, 4)
    finally:
        tracer.uninstall()
    assert generator.interleaved_entry_counts is original
    assert "build" in vars(generator.WorkloadBuilder)
    names = [s.name for s in tracer.spans]
    assert names.count("workloads.build") == 2 and names.count("compression.entry_counts") == 1
    root = next(s for s in tracer.spans if s.name == "experiments.test")
    assert all(s.root == root.span_id for s in tracer.spans)


# -- percentile rule --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(10, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (10000, 99.9)],
)
def test_highest_supported_percentile(count, expected):
    assert stats.highest_supported_percentile(count) == expected


def test_min_samples_and_summary():
    assert [stats.min_samples(q) for q in (75, 90, 95, 99)] == [40, 100, 200, 1000]
    summary = stats.summarize(list(range(1, 101)))
    assert summary == {"n": 100, "median": 50.5, "q": 90.0, "tail": pytest.approx(90.1)}
    assert stats.summarize([3.0])["tail"] is None


# -- one tiny pass of each workload -----------------------------------------------------------


def _context(tmp_path, workload, params, seconds=1.0):
    scratch = tmp_path / "scratch"
    scratch.mkdir(exist_ok=True)
    return Context(workload, 3, seconds, SRC, scratch, tmp_path / "traces", params)


TOY_PAPER = ("fig6_speedup", "fig11_scalability", "table2_area_power", "ablation_index_width")


def test_paper_pass_checks_records(tmp_path):
    _, digests, _ = paper.run_pass(3, tmp_path / "store", 64, TOY_PAPER)
    params = {"setup_repeats": 1, "scale": 64,
              "experiments": TOY_PAPER, "digests": digests}
    result = RUNS[("paper", False)](_context(tmp_path, "paper", params, seconds=0.0))
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 4, 0)
    assert result["metrics"]["ops_per_s"] > 0 and result["metrics"]["setup_s"] > 0

    tampered = dict(digests, fig6_speedup="0" * 64)
    result = RUNS[("paper", False)](
        _context(tmp_path, "paper", dict(params, digests=tampered), seconds=0.0)
    )
    assert (result["correct"], result["failed"]) == (False, 1)


def test_paper_traced_pass(tmp_path):
    _, digests, _ = paper.run_pass(3, tmp_path / "store", 64, TOY_PAPER)
    params = {"scale": 64, "experiments": TOY_PAPER, "digests": digests}
    result = RUNS[("paper", True)](_context(tmp_path, "paper", params))
    assert result["correct"]
    metrics, table = result["metrics"], result["report"]["breakdown"]
    assert sum(table["layers"].values()) + table["other_s"] == pytest.approx(table["wall_s"])
    assert metrics["workloads.build_calls"] >= metrics["workloads.builds_performed"] > 0
    assert metrics["experiments.fig11_scalability_s"] > 0
    trace = json.loads(Path(result["report"]["trace_file"]).read_text())
    assert {event["cat"] for event in trace["traceEvents"]} >= {"experiments", "workloads"}


def _serve_params(tmp_path, model, scale, percentile, **extra):
    """Toy daemon parameters, with offline-output digests recorded for seed 3."""
    params = {
        "model": model, "scale": scale, "pes": 8, "max_batch": 4, "engine": "cycle",
        "concurrency": 8, "warmup_s": 0.1, "latency_limit_s": 5.0,
        "one_client_percentile": percentile, "setup_repeats": 1, **extra,
    }
    scratch = tmp_path / "record"
    scratch.mkdir()
    params["output_digests"] = serve.record_digests(SRC, params, [3], scratch)["3"]
    return params


def test_serve_runner_passes_and_checks_digests(tmp_path):
    params = _serve_params(tmp_path, "neuraltalk_lstm", 64, 90.0, open_loop_rps=200)
    result = RUNS[("serve_alexnet", False)](_context(tmp_path, "serve_alexnet", params))
    assert result["correct"] and result["failed"] == 0
    assert result["report"]["offline_checked"] == serve.OFFLINE_SAMPLE
    assert result["metrics"]["ops_per_s"] > 0 and result["metrics"]["lat_p50_ms"] > 0
    assert len(result["samples"]["lat_p50_ms"]) >= stats.min_samples(90.0)

    tampered = list(params["output_digests"])
    tampered[5] = "0" * 64
    result = RUNS[("serve_alexnet", False)](
        _context(tmp_path, "serve_alexnet", dict(params, output_digests=tampered))
    )
    assert (result["correct"], result["failed"]) == (False, 1)
    assert result["report"]["offline_mismatched"] == {"served": [], "digest": [5]}

    result = RUNS[("serve_alexnet", True)](_context(tmp_path, "serve_alexnet", params))
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["loadgen.open_tail_ms"] > 0 and result["metrics"]["loadgen.lag_ms"] >= 0


def test_serve_alexnet_traced_pass(tmp_path):
    params = _serve_params(tmp_path, "alexnet_fc", 64, 75.0)
    result = RUNS[("serve_alexnet", True)](_context(tmp_path, "serve_alexnet", params))
    assert result["correct"] and result["failed"] == 0
    metrics, table = result["metrics"], result["report"]["breakdown"]
    assert sum(table["layers"].values()) + table["other_s"] == pytest.approx(table["wall_s"])
    assert metrics["compression.compress_s"] > 0 and metrics["serve.inproc_capacity_rps"] > 0
    assert metrics["cycle_model.batch_items"] >= metrics["cycle_model.simulate_batch_calls"] > 0

