"""Recipe-level benchmark of rrl-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop caller runs a workload's ops one after another.  Each pass
is a fresh interpreter (``worker.py``), so caches start cold as they do on
every CLI call; passes repeat until ``--seconds`` is used up (at least
two, three when traced), and every timing is the median of the run's
samples.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from traced passes plus the tracing overhead (traced minus
untraced pass time in seconds).

Times are CPU seconds at a reference speed.  The run pins itself and its
children to one CPU, next to a speed probe (``probe.py``) that times two
fixed loops every 20 ms; the CPU time of each op, set-up and CLI run is
scaled by the probe's speed over the same window.  The shared host switches
each CPU between speeds up to 1.8 times apart every few seconds, which
wall-clock times carry straight through.  Wall-clock times are kept in the
record.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record with provenance, every pass and
the resolved parameters of every op goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import struct
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402  (no numpy, no rrl_lab: safe in the parent)

# seed kept out of every tuning run, for checking a later claim
HELD_OUT_SEED = 1301

# the recipe a user of each workload runs from the command line
MAIN_RECIPE = {
    "pole-moments": "psp-rrl",
    "arc-probe": "probe-arc",
    "rotation-search": "hecke-unique",
    "certificates": "balance",
}
# a traced run needs two traced passes after its untraced one, so that
# its computed counts can be checked to repeat
MIN_PASSES = {0: 2, 1: 3}
# set-up-only spawns and CLI runs after each pass, so that their samples
# spread over the whole run rather than one moment of machine load.  A CLI
# run is short and moves by about 6% from one to the next, so it gets more,
# topped up after the last pass when the passes are long.
SETUP_SAMPLES_PER_PASS = 1
CLI_SAMPLES_PER_PASS = 4
MIN_CLI_SAMPLES = 16
PASS_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ENV = {**os.environ, **{v: "1" for v in THREAD_VARS},
       "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}


class Probe:
    """The speed probe on this process's CPU, and what it has recorded."""

    REF_S = 0.4e-3  # CPU seconds of the probe's loops at the reference speed

    def __init__(self, path: Path):
        self.path = path
        path.unlink(missing_ok=True)
        self.proc = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "probe.py"),
                                      str(path)], env=ENV, cwd=ROOT)

    def speed(self, start: float, end: float) -> float:
        """Reference speed over the current one, averaged over [start, end]
        (the nearest sample when none falls inside)."""
        raw = self.path.read_bytes()
        samples = list(struct.iter_unpack("dd", raw[: len(raw) // 16 * 16]))
        if not samples:
            raise RuntimeError("the speed probe recorded nothing")
        inside = [dt for t, dt in samples if start <= t <= end]
        if not inside:
            inside = [min(samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]]
        return statistics.fmean(self.REF_S / dt for dt in inside)

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait()


def run_worker(workload: str, seed: int, workdir: Path, probe: Probe, *flags: str
               ) -> tuple[float, dict | None]:
    """One worker process; set-up is its CPU time from spawn to ``ready``."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), *flags]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=ENV, cwd=ROOT) as proc:
        try:
            first = proc.stdout.readline().split()
            ready = perf_counter()
            rest, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or not first or first[0] != "ready":
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    setup_s = float(first[1]) * probe.speed(start, ready)
    report = json.loads(rest.strip().splitlines()[-1]) if rest.strip() else None
    if report is not None:
        report["setup_wall_s"] = ready - start
        for op in report["ops"]:
            op["ref_s"] = op["cpu_s"] * probe.speed(op["start"], op["end"])
    return setup_s, report


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_cli(recipe: str, out: Path, probe: Probe | None = None) -> dict:
    """Cold-start CLI run of a recipe at its default parameters."""
    cmd = [sys.executable, "-m", "rrl_lab.cli", "run", "--recipe", recipe, "--out", str(out)]
    cpu, start = children_cpu(), perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=ENV, cwd=ROOT,
                          timeout=PASS_TIMEOUT_S)
    end, cpu = perf_counter(), children_cpu() - cpu
    try:
        status = json.loads(proc.stdout.strip().splitlines()[-1]).get("status")
    except (IndexError, ValueError):
        status = None
    return {"seconds": cpu * probe.speed(start, end) if probe else None,
            "wall_s": end - start, "cpu_s": cpu,
            "ok": proc.returncode == 0 and status in ("ok", "certified")}


def provenance() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or 0) or None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        l3 = None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache_bytes": l3,
        "held_out_seed": HELD_OUT_SEED,
        "thread_env": {v: "1" for v in THREAD_VARS},
    }


def unit(name: str) -> str:
    name = name.removesuffix(".small").removesuffix(".large")
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    return "ratio" if name.endswith("ratio") else "count"


def layer_pass(report: dict) -> dict:
    """Per-layer metrics of one traced pass: all ops, then the sized ones."""
    ops, layers = report["ops"], report["layers"]

    def over(selected):
        times: dict = {}
        for op, layer in selected:
            # span times are wall clock: scale them as the op's time was
            scale = op["ref_s"] / op["seconds"] if op["seconds"] > 0 else 1.0
            for key, value in layer["times"].items():
                times[key] = times.get(key, 0.0) + value * scale
        counts = tracing.merge_counts([layer["counts"] for _, layer in selected])
        return tracing.layer_metrics(times, counts)

    metrics = over(list(zip(ops, layers)))
    for size in ("small", "large"):
        sized = over([(op, l) for op, l in zip(ops, layers) if op["size"] == size])
        metrics.update({f"{m}.{size}": sized[m] for m in tracing.SCALING})
    return metrics


def measure(args, workdir: Path, recipe: str, probe: Probe
            ) -> tuple[list[dict], list[float], list[dict]]:
    """Passes until ``--seconds`` is used up, with set-up and CLI samples."""
    start = perf_counter()
    passes: list[dict] = []
    setups: list[float] = []
    cli: list[dict] = []
    while True:
        traced = bool(args.trace) and bool(passes)  # traced runs keep one untraced pass
        flags = ("--spans", str(workdir / f"spans-{len(passes)}.json")) if traced else ()
        iteration_start = perf_counter()
        setup_s, report = run_worker(args.workload, args.seed, workdir / "pass", probe, *flags)
        setups.append(setup_s)
        for _ in range(SETUP_SAMPLES_PER_PASS):
            setups.append(run_worker(args.workload, args.seed, workdir / "setup", probe,
                                     "--setup-only")[0])
        for _ in range(CLI_SAMPLES_PER_PASS):
            cli.append(time_cli(recipe, workdir / "cli.json", probe))
        report.update(setup_s=setup_s, traced=traced,
                      iteration_s=perf_counter() - iteration_start)
        passes.append(report)
        typical = statistics.median(p["iteration_s"] for p in passes)
        if (len(passes) >= MIN_PASSES[args.trace]
                and perf_counter() - start + typical > args.seconds):
            break
    while len(cli) < MIN_CLI_SAMPLES:
        cli.append(time_cli(recipe, workdir / "cli.json", probe))
    return passes, setups, cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MAIN_RECIPE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workdir = OUT / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # one CPU for this process and every child, the probe included
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    # compile the library and warm the page cache before any timing
    subprocess.run([sys.executable, "-c", "import rrl_lab.cli"], check=True, env=ENV,
                   cwd=ROOT, timeout=PASS_TIMEOUT_S)

    recipe = MAIN_RECIPE[args.workload]
    time_cli(recipe, workdir / "cli.json")  # warm-up, untimed
    probe = Probe(workdir / "probe.bin")
    try:
        passes, setups, cli = measure(args, workdir, recipe, probe)
    finally:
        probe.close()

    wall = [sum(op["ref_s"] for op in p["ops"]) for p in passes]  # per pass
    ops = [op for p in passes for op in p["ops"]]
    attempted = len(ops) + len(cli)
    failed = sum(not op["ok"] for op in ops) + sum(not c["ok"] for c in cli)
    correct = all(op["correct"] for op in ops)

    if args.trace:
        per_pass = [layer_pass(p) for p in passes if p["traced"]]
        counted = [{k: v for k, v in m.items() if unit(k) != "s"} for m in per_pass]
        if any(c != counted[0] for c in counted):
            correct = False  # computed counts must repeat exactly
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["cli.import_s"] = statistics.median(
            p["import_s"] * p["setup_s"] / p["setup_wall_s"] for p in passes)
        metrics["trace.overhead_s"] = (
            statistics.median(w for w, p in zip(wall, passes) if p["traced"])
            - statistics.median(w for w, p in zip(wall, passes) if not p["traced"]))
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            # per-op medians, so one slow op in one pass moves it less
            "wall_s": sum(statistics.median(p["ops"][i]["ref_s"] for p in passes)
                          for i in range(len(passes[0]["ops"]))),
            "scaled_op_s": statistics.median(op["ref_s"] for op in ops if op["scaled"]),
            "cli_default_s": statistics.median(c["seconds"] for c in cli),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "ok_share": (attempted - failed) / attempted,
        }
    units = {"peak_rss_mb": "MB", "ok_share": "ratio"}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k) or unit(k)}
                    for k, v in metrics.items()},
    }

    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "main_recipe": recipe,
        "provenance": {**provenance(), "cpu": cpu,
                       **{k: passes[0][k] for k in ("python", "numpy", "rrl_lab")}},
        "setup_s": setups,
        "cli_default": cli,
        "passes": passes, "result": result,
    }, indent=1))
    for name, error in sorted({(op["name"], op["error"]) for op in ops if not op["ok"]}):
        print(f"failed: {name}: {error}")
    print(f"record: {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
