"""One pass of a workload in a fresh interpreter.

Imports the library from the checkout's ``src``, writes the seeded inputs,
prints ``ready`` and its CPU seconds so far, runs every op once in order
(timing each by wall clock and by process CPU time), checks every
output against its oracle and prints one JSON line with the timings,
outcomes, peak RSS and, when traced, the per-op span times and counts.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR [--spans F | --setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="trace, and write the spans here")
    parser.add_argument("--setup-only", action="store_true", help="exit once ready")
    args = parser.parse_args()

    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import rrl_lab.cli  # noqa: F401  the CLI entry point pulls in every module

    import_s = perf_counter() - t0
    lib_file = Path(rrl_lab.__file__).resolve()
    if ROOT / "src" not in lib_file.parents:
        raise SystemExit(f"rrl_lab imported from {lib_file}, not from {ROOT / 'src'}")

    import numpy as np

    sys.path.insert(0, str(ROOT / "perfbench"))
    import tracing
    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    # CPU seconds since the interpreter started, for the set-up time
    print(f"ready {process_time()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.spans is not None:
        tracer = tracing.Tracer()
        tracer.install()

    outputs, records, per_op = [], [], []
    for op in ops:
        first_span = len(tracer.spans) if tracer else 0
        start, cpu = perf_counter(), process_time()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a failed op is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        cpu_s, end = process_time() - cpu, perf_counter()
        outputs.append(out)
        records.append({"name": op.name, "params": op.params, "size": op.size,
                        "scaled": op.scaled, "seconds": end - start, "cpu_s": cpu_s,
                        "start": start, "end": end, "error": error})
        if tracer:
            spans = [[n, a, b, p - first_span if p >= 0 else -1]
                     for n, a, b, p in tracer.spans[first_span:]]
            per_op.append({"times": tracing.span_times(spans), "counts": tracer.take_counts()})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op, out, rec in zip(ops, outputs, records):
        rec["ok"] = rec["error"] is None
        rec["correct"] = True
        if rec["ok"]:
            try:
                op.check(out)
            except Exception as exc:  # an oracle that cannot read the output fails it
                rec["ok"] = rec["correct"] = False
                rec["error"] = f"wrong output: {type(exc).__name__}: {exc}"

    if tracer:
        args.spans.write_text(json.dumps(tracer.spans))
    print(json.dumps({
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": records,
        "layers": per_op,
        "numpy": np.__version__,
        "rrl_lab": rrl_lab.__version__,
        "python": sys.version.split()[0],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
