"""Record the reference output digests the benchmark checks its runs against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record_digests.py [paper] [serve_alexnet]

With no argument it records both.  ``paper`` runs the 16 paper experiments
once per input set (about 30 s each on a 2-core machine) and rewrites
``perfbench/paper_digests.json``.  ``serve_alexnet`` starts the daemon once
and re-runs the first sampled request vectors of every input set offline
through its compressed model, then rewrites ``perfbench/serve_digests.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from eiebench import paper, serve  # noqa: E402

SERVE_WORKLOADS = ("serve_alexnet",)


def record_paper(scratch: Path) -> None:
    sets = {}
    for index in range(paper.INPUT_SETS):
        wall, digests, _ = paper.run_pass(index, scratch / "store")
        sets[str(index)] = digests
        print(f"paper input set {index}: {wall:.1f} s", flush=True)
    payload = {
        "about": "sha256 of each paper experiment's JSON records, per input set "
        "(workload seed mod input_sets)",
        "input_sets_count": paper.INPUT_SETS,
        "default_seed": 0,
        "held_out_seed": 7,
        "input_sets": sets,
    }
    paper.DIGESTS.write_text(json.dumps(payload, indent=1) + "\n")


def record_serve(names: list[str], scratch: Path) -> None:
    params = json.loads((HERE / "workloads.json").read_text())
    payload = {
        "about": "sha256 of the offline outputs of the first vectors of each input set "
        "(workload seed mod input_sets), through the daemon's compressed model",
        "input_sets_count": paper.INPUT_SETS,
        "vectors": serve.OFFLINE_SAMPLE,
        "workloads": {
            name: serve.record_digests(
                ROOT / "src", params[name], range(paper.INPUT_SETS), scratch
            )
            for name in names
        },
    }
    serve.DIGESTS.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"recorded {', '.join(names)}", flush=True)


def main(argv: list[str]) -> int:
    names = argv or ["paper", *SERVE_WORKLOADS]
    unknown = set(names) - {"paper", *SERVE_WORKLOADS}
    if unknown:
        print(f"unknown workload(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_run" / "record"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if "paper" in names:
            record_paper(scratch)
        served = [name for name in SERVE_WORKLOADS if name in names]
        if served:
            record_serve(served, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
