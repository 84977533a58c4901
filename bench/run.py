"""Benchmark of the oqrw package: two workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload exact --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout (it imports oqrw from ./src). Each
workload runs in a process of its own (bench/worker.py); before it, SETUP_SAMPLES
- 1 more processes only set up, so that set-up time is a median too. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. On `exact` the timings of the passes are reported at
the yardstick's reference speed (yardstick.py). Workloads and metrics are
described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("exact", "sample-cli")
SETUP_SAMPLES = 5
DEADLINE_S = 170


class BenchError(Exception):
    pass


def spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker; return its start time and the JSON of its last output line."""
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return t0, json.loads(lines[-1])


def setup_sample(t0: float, res: dict) -> dict:
    stamps = res["stamps"]
    return {
        "setup_s": stamps["ready"] - t0,
        "interp_s": stamps["first"] - t0,
        "import_s": stamps["imported"] - stamps["import"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "oqrw" / "__init__.py").is_file():
        print(f"error: no oqrw sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    runs = ROOT / ".bench_runs"
    workdir = runs / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "OQRW_THREADS"}   # the program's own threading
    base = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", str(workdir)]
    trace_file = runs / f"trace-{args.workload}-seed{args.seed}.jsonl"
    try:
        samples = [setup_sample(*spawn(base + ["--setup-only"], env, deadline)) for _ in range(SETUP_SAMPLES - 1)]
        t0, res = spawn(base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                "--trace-file", str(trace_file)], env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    samples.append(setup_sample(t0, res))

    for name, err in res["errors"].items():
        print(f"failed operation {name}: {err}", file=sys.stderr)
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    passes, speeds = res["pass_times"], res["speeds"]
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{', '.join(f'{t:.3f}' for t in passes)} s", file=sys.stderr)
    if res["yard_medians"][0] is not None:
        print(f"median yardstick of each pass: {', '.join(f'{y * 1e3:.2f}' for y in res['yard_medians'])} ms",
              file=sys.stderr)

    # Each operation's median time over the passes, at the reference speed
    # (bench/yardstick.py; as measured where speeds are 1). pass_s is their
    # sum, the time of a pass with every operation at its median, so that a
    # slow call of one operation does not make its pass the median one.
    medians = [statistics.median(t / v for t, v in zip(times, speeds)) for times in res["op_times"].values()]
    pass_s = math.fsum(medians)
    if args.trace:
        metrics = {
            "cli.interp_s": {"value": statistics.median(s["interp_s"] for s in samples), "unit": "s"},
            "cli.import_s": {"value": statistics.median(s["import_s"] for s in samples), "unit": "s"},
            **res["layers"],
        }
        print(f"traced pass_s {pass_s!r}; spans in {trace_file}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in samples), "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "call_geomean_ms": {"value": math.exp(statistics.fmean(math.log(t * 1e3) for t in medians)),
                                "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
