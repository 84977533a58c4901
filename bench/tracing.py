"""Spans around the benchmark's calls into oqrw, and the per-layer metrics made from them.

A span is (name, start, end, operation, operation id, pass). Its name is the
module-qualified name of the public function called; its parent is the
operation of the workload that made the call, and the pass it ran in (-1
for the probe). Counts are recorded at the same boundaries. Everything stays
in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
import time

from checks import ROUNDOFF_FLOOR

# metric -> (span name, factor from seconds to the metric's unit)
TIMED = {
    "lattice.evolve_s": ("lattice.evolve", 1.0),
    "lattice.distribution_ms": ("lattice.distribution", 1e3),
    "dual.distribution_via_dual_s": ("dual.distribution_via_dual", 1.0),
    "catalog.closed_form_ms": ("catalog.closed_form", 1e3),
    "catalog.cut_unfold_exact_ms": ("catalog.cut_unfold_exact", 1e3),
    "catalog.build_us": ("catalog.build", 1e6),
    "limits.clt_params_us": ("limits.clt_params", 1e6),
    "limits.ex5_alpha_ms": ("limits.ex5_alpha", 1e3),
    "limits.laplace_ratio_ms": ("limits.laplace_ratio", 1e3),
    "distribution.to_csv_text_ms": ("distribution.Distribution.to_csv_text", 1e3),
    "distribution.from_csv_text_ms": ("distribution.Distribution.from_csv_text", 1e3),
    "distribution.compare_ms": ("distribution.compare", 1e3),
    "core.validate_kraus_pair_us": ("core.validate_kraus_pair", 1e6),
    "core.random_kraus_pair_us": ("core.random_kraus_pair", 1e6),
}
SHAPES = ("many_short", "few_long")


class NullTracer:
    """Calls straight through; used for the untraced runs."""

    enabled = False

    def start_op(self, op: str, pass_index: int) -> None:
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value) -> None:
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []
        self.op = None
        self.op_id = -1
        self.pass_index = -1

    def start_op(self, op: str, pass_index: int) -> None:
        self.op = op
        self.op_id += 1
        self.pass_index = pass_index

    def call(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, t0, time.perf_counter(), self.op, self.op_id, self.pass_index))

    def count(self, name: str, value) -> None:
        self.counts.append((name, value, self.op, self.op_id, self.pass_index))

    def dual_law_counts(self, probs) -> None:
        self.count("dual.sites_reported", int(probs.size))
        self.count("dual.useful_sites", int((probs > ROUNDOFF_FLOOR).sum()))

    def write(self, path, extra: dict) -> None:
        keys = ("name", "start", "end", "parent", "op_id", "pass")
        with open(path, "w") as fh:
            fh.write(json.dumps(extra) + "\n")
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
            for c in self.counts:
                fh.write(json.dumps(dict(zip(("count", "value", "parent", "op_id", "pass"), c))) + "\n")


def _prefer_workload(rows, pass_at: int = 3):
    """Rows from the workload's own passes when it has any, else from the probe."""
    own = [r for r in rows if r[pass_at] >= 0]
    return own or [r for r in rows if r[pass_at] < 0]


def layer_metrics(tr: Tracer, cli_rounds: list[tuple[float, int]]) -> dict:
    """Every per-layer metric made in the traced process, from its spans and counts.

    A timed layer metric is the time one pass spends in that function, as a
    median over passes; counts are those of the first pass. cli_rounds holds
    (seconds, output bytes) of each in-process round of the CLI commands.
    """
    out = {
        "cli.main_ms": (statistics.median(t for t, _ in cli_rounds) * 1e3, "ms"),
        "cli.output_bytes": (statistics.median(b for _, b in cli_rounds), "bytes"),
    }
    for metric, (span, factor) in TIMED.items():
        rows = _prefer_workload([(s[2] - s[1], s[3], s[4], s[5]) for s in tr.spans if s[0] == span])
        per_pass: dict[int, float] = {}
        for dt, _, _, p in rows:
            per_pass[p] = per_pass.get(p, 0.0) + dt
        out[metric] = (statistics.median(per_pass.values()) * factor, metric.rsplit("_", 1)[1])

    reported = _prefer_workload([(c[1], c[3], c[4]) for c in tr.counts if c[0] == "dual.sites_reported"], 2)
    useful = _prefer_workload([(c[1], c[3], c[4]) for c in tr.counts if c[0] == "dual.useful_sites"], 2)
    first = min(r[2] for r in reported)
    n_reported = sum(r[0] for r in reported if r[2] == first)
    n_useful = sum(r[0] for r in useful if r[2] == first)
    out["dual.sites_reported"] = (n_reported, "count")
    out["dual.useful_site_ratio"] = (n_useful / n_reported, "ratio")

    for shape in SHAPES:
        spans = _prefer_workload(
            [(s[2] - s[1], s[3], s[4], s[5]) for s in tr.spans
             if s[0] == "trajectory.sample" and shape in s[3]]
        )
        steps = {c[3]: c[1] for c in tr.counts if c[0] == "trajectory.traj_steps"}
        per_pass: dict[int, list[float]] = {}
        for dt, _, op_id, p in spans:
            acc = per_pass.setdefault(p, [0.0, 0])
            acc[0] += dt
            acc[1] += steps[op_id]
        seconds = statistics.median(v[0] for v in per_pass.values())
        work = statistics.median(v[1] for v in per_pass.values())
        out[f"trajectory.sample_s.{shape}"] = (seconds, "s")
        out[f"trajectory.traj_steps_per_s.{shape}"] = (work / seconds, "1/s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
