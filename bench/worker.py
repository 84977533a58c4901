"""One workload in one process: set up, time whole passes, then check every output.

Started by run.py. With --setup-only it sets up and exits, which gives run.py
one more sample of the set-up time. Otherwise it prints one JSON line with the
pass and call times, the peak memory, the operations attempted and failed,
and every check that did not hold.
"""

import time

T_FIRST = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2
CLI_ROUNDS = 3


def _problem(problems: list, name: str, exc: BaseException) -> None:
    problems.append(f"{name}: {type(exc).__name__}: {exc}")


def run_passes(w, tr, seconds: float) -> dict:
    """Whole passes over the operations until the next one would end after `seconds`.

    In a workload that is measured against the yardstick, one yardstick is
    timed after every YARDSTICK_EVERY_S seconds of operations; its time is
    not counted in the pass. A pass's speed is its median yardstick over
    REFERENCE_S, or 1 in a workload without the yardstick.
    """
    import checks
    from yardstick import REFERENCE_S, YARDSTICK_EVERY_S, Yardstick

    FAILED = object()
    outputs, errors, problems = {}, {}, []
    op_times = {op.name: [] for op in w.ops}
    pass_times, pass_walls, yard_times = [], [], []
    attempted = failed = 0
    yardstick = Yardstick() if w.yardstick else None
    if yardstick:
        yardstick()
    start = time.perf_counter()
    while True:
        pass_index = len(pass_times)
        t_pass = time.perf_counter()
        total = since_yard = 0.0
        yards = []
        for op in w.ops:
            tr.start_op(op.name, pass_index)
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run(tr)
            except Exception as exc:  # counted as a failed operation and reported
                out = FAILED
                failed += 1
                errors.setdefault(op.name, f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            total += dt
            op_times[op.name].append(dt)
            since_yard += dt
            while yardstick and since_yard >= YARDSTICK_EVERY_S:
                since_yard -= YARDSTICK_EVERY_S
                t0 = time.perf_counter()
                yardstick()
                yards.append(time.perf_counter() - t0)
            if pass_index == 0:
                outputs[op.name] = out
            elif (out is FAILED) != (outputs[op.name] is FAILED):
                problems.append(f"{op.name}: fails in some passes only")
            elif out is not FAILED:
                try:
                    checks.identical(out, outputs[op.name])
                except checks.CheckError as exc:
                    _problem(problems, op.name, exc)
        pass_times.append(total)
        pass_walls.append(time.perf_counter() - t_pass)
        yard_times.append(yards)
        elapsed = time.perf_counter() - start
        if len(pass_times) >= MIN_PASSES and elapsed + statistics.median(pass_walls) > seconds:
            break
    return {
        "outputs": {k: v for k, v in outputs.items() if v is not FAILED},
        "errors": errors,
        "problems": problems,
        "op_times": op_times,
        "pass_times": pass_times,
        "yard_medians": [statistics.median(y) if y else None for y in yard_times],
        "speeds": [statistics.median(y) / REFERENCE_S if y else 1.0 for y in yard_times],
        "attempted": attempted,
        "failed": failed,
    }


def check_outputs(ops, outputs: dict, problems: list) -> None:
    import checks

    for op in ops:
        if op.name not in outputs:
            continue
        try:
            op.check(outputs[op.name])
        except checks.CheckError as exc:
            _problem(problems, op.name, exc)
        except Exception as exc:  # a reference that could not be made is a problem too
            _problem(problems, f"{op.name} (reference)", exc)


def run_probe(tr, args, workdir: Path, problems: list) -> list[tuple[float, int]]:
    """Calls for the layers this workload does not make, so every layer metric has a value.

    Runs one pass of the small part of `exact` if a timed layer has no span,
    the reduced trajectory shapes if nothing sampled, and always CLI_ROUNDS
    rounds of the CLI commands through cli.main in this process.
    """
    import tracing
    import workloads

    called = {s[0] for s in tr.spans}
    ops = []
    if any(span not in called for span, _ in tracing.TIMED.values()):
        ops += [op for op in workloads.exact_small(args.seed, workdir).ops if not op.known_fault]
    if "trajectory.sample" not in called:
        ops += workloads.probe_samples(args.seed)
    outputs = {}
    for op in ops:
        tr.start_op("probe." + op.name, -1)
        try:
            outputs[op.name] = op.run(tr)
        except Exception as exc:
            _problem(problems, "probe." + op.name, exc)
    check_outputs(ops, outputs, problems)

    rounds = []
    for r in range(CLI_ROUNDS):
        seconds, size = 0.0, 0
        for cmd in workloads.cli_commands(args.seed, workdir):
            tr.start_op("probe.cli." + cmd.name, -1)
            first = len(tr.spans)
            try:
                result = workloads.run_cli_inprocess(tr, cmd, workdir)
                if r == 0:
                    cmd.check(*result)
                size += workloads.output_bytes(cmd, result)
            except Exception as exc:
                _problem(problems, "probe.cli." + cmd.name, exc)
            seconds += sum(s[2] - s[1] for s in tr.spans[first:] if s[0] == "cli.main")
        rounds.append((seconds, size))
    return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t_import = time.monotonic()
    import oqrw  # noqa: F401
    import oqrw.cli  # noqa: F401
    t_imported = time.monotonic()
    import checks
    import tracing
    import workloads

    workdir = Path(args.workdir)
    w = workloads.WORKLOADS[args.workload](args.seed, workdir)
    w.warmup()
    stamps = {"first": T_FIRST, "import": t_import, "imported": t_imported, "ready": time.monotonic()}
    if args.setup_only:
        print(json.dumps({"stamps": stamps}))
        return 0

    tr = tracing.Tracer() if args.trace else tracing.NullTracer()
    res = run_passes(w, tr, args.seconds)
    # the largest of this process and its CLI children; ru_maxrss is in KiB on Linux
    peak_rss_mb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0

    problems = res["problems"]
    layers = None
    if args.trace:
        rounds = run_probe(tr, args, workdir, problems)
        layers = tracing.layer_metrics(tr, rounds)
        tr.write(args.trace_file, {"workload": args.workload, "seed": args.seed,
                                   "pass_times": res["pass_times"]})
    check_outputs(w.ops, res["outputs"], problems)
    try:
        w.cross_check(res["outputs"])
    except checks.CheckError as exc:
        _problem(problems, "cross-check", exc)
    except KeyError:
        pass   # an operation the cross-check needs failed, and is counted already

    known = {op.name for op in w.ops if op.known_fault}
    print(json.dumps({
        "stamps": stamps,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "unexpected_errors": {k: v for k, v in res["errors"].items() if k not in known},
        "errors": res["errors"],
        "problems": problems,
        "pass_times": res["pass_times"],
        "yard_medians": res["yard_medians"],
        "speeds": res["speeds"],
        "op_times": res["op_times"],
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
