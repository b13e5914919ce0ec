"""Benchmark driver for the EIE reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` runs the traced variant and reports the per-layer
metrics (and writes a Chrome trace under ``.perfbench_run/traces``).  Detail
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--seconds``
defaults to ``run_seconds`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    workloads = json.loads((HERE / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.params = workloads[args.workload]
    return args


def _format(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # SIGTERM unwinds like an exception, so the daemons this run started are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    benchmark_file = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not benchmark_file.is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    benchmark = json.loads(benchmark_file.read_text())
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    from eiebench.machine import fingerprint
    from eiebench.stats import summarize
    from eiebench.workloads import RUNS, Context

    run_dir = ROOT / ".perfbench_run"
    scratch = run_dir / f"scratch-{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    context = Context(
        args.workload, args.seed, args.seconds, SRC, scratch, run_dir / "traces", args.params
    )
    try:
        result = RUNS[(args.workload, bool(args.trace))](context)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    machine = fingerprint()
    metrics = {
        entry["name"]: {
            "value": float(result["metrics"].get(entry["name"], 0.0)),
            "unit": entry["unit"],
        }
        for entry in declared
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        **{key: result[key] for key in ("correct", "attempted", "failed")},
        "metrics": metrics,
        "report": result["report"],
    }
    results_dir = run_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"machine: {json.dumps(machine)}")
    print(f"report: {json.dumps(result['report'], default=str)}")
    if args.trace:
        table = result["report"]["breakdown"]
        print(f"{'layer':<14}{'self s':>10}{'share':>8}")
        for layer, self_s in sorted(table["layers"].items(), key=lambda item: -item[1]):
            print(f"{layer:<14}{self_s:>10.3f}{self_s / table['wall_s']:>8.1%}")
        print(f"{'other':<14}{table['other_s']:>10.3f}{table['other_s'] / table['wall_s']:>8.1%}")
        print(f"{'wall':<14}{table['wall_s']:>10.3f}")
    for name, metric in metrics.items():
        line = f"metric {name} = {_format(metric['value'])} {metric['unit']}"
        if name in result.get("samples", {}):
            summary = summarize(result["samples"][name])
            line += f" (median {_format(summary['median'])}"
            if summary["q"] is not None:
                line += f", p{summary['q']:g} {_format(summary['tail'])}"
            line += f", n {summary['n']})"
        print(line)
    print(f"result file: {result_path}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
