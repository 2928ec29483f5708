"""catqm benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload {tree,curved_flat,algebra}
        [--seed N] [--seconds S] [--trace 0|1]

Every pass runs in a fresh interpreter (``worker.py``), one after another
from this single process, the way a user runs ``catqm``.  Passes repeat
until ``--seconds`` have gone by.  Then:

- ``--trace 0`` reports the end-to-end metrics: median pass time
  (``wall_s``) and median set-up time (``setup_s``, import plus config
  loading, sampled at least ``SETUP_SAMPLES`` times), both scaled to the
  reference host speed (see ``worker.py``); median peak resident memory of
  a pass process (``peak_rss_mb``); and the share of operations that did
  not fail (``ops_ok``).
- ``--trace 1`` alternates untraced and traced passes and reports the
  per-layer metrics of the traced ones, plus the tracing overhead.

Every operation is checked: report schema, exit code against status,
witness replay, byte-identical bodies across passes, and the extension
certificate value.  The metric names and units come from ``BENCHMARK.json``.
The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``--seed`` each config
keeps its shipped seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
LIMIT_S = 165.0     # every run ends well inside three minutes
COUNT_UNITS = ("count", "ratio", "count/call")


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Runner:
    """Starts worker processes one at a time, within the run's time limit."""

    def __init__(self, workload: str, seed: int | None):
        self.workload, self.seed = workload, seed
        self.started = time.monotonic()
        self.longest = {}   # kind of child -> longest wall seconds so far
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def fits(self, kind: str) -> bool:
        """Whether another child of this kind can end inside the limit."""
        return self.elapsed() + 1.5 * self.longest.get(kind, 0.0) < LIMIT_S

    def child(self, kind: str, *flags: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload]
        if self.seed is not None:
            cmd += ["--seed", str(self.seed)]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + list(flags), cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"a {kind} pass ran past the time limit") from exc
        self.longest[kind] = max(self.longest.get(kind, 0.0), time.monotonic() - t0)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
        return json.loads(lines[-1])


def tally(passes: list[dict]) -> tuple[dict, int, int, bool]:
    """Per-op summary; attempted and failed operations; whether every
    output produced passed its checks."""
    ops: dict[str, dict] = {}
    for p in passes:
        for rec in p["ops"]:
            entry = ops.setdefault(rec["op"], {"records": [], "digests": set()})
            entry["records"].append(rec)
            if rec["digest"]:
                entry["digests"].add(rec["digest"])
    attempted = failed = 0
    correct = True
    for entry in ops.values():
        differs = len(entry["digests"]) > 1
        correct &= not differs
        for rec in entry["records"]:
            attempted += 1
            correct &= not rec["problems"]
            failed += bool(rec["status"] in ("raised", "error")
                           or rec["problems"] or differs)
        entry["differs"] = differs
    return ops, attempted, failed, correct


def print_ops(ops: dict):
    print(f"{'operation':32} {'status':10} {'exit':>4} {'median s':>9}  body sha256"
          "  (time: untraced passes)")
    for name, entry in ops.items():
        recs = entry["records"]
        first = recs[0]
        body = first["digest"][:16] if first["digest"] else "-"
        if entry["differs"]:
            body += "  DIFFERS BETWEEN PASSES"
        exit_code = "-" if first["exit"] is None else str(first["exit"])
        med = statistics.median(r["s"] for r in recs if not r.get("traced"))
        print(f"{name:32} {str(first['status']):10} {exit_code:>4} {med:9.3f}  {body}")
        if first["error"]:
            print(f"{'':32} {first['error']}")
        for problem in sorted({p for r in recs for p in r["problems"]}):
            print(f"{'':32} problem: {problem}")


def end_to_end(run: Runner, seconds: float) -> tuple[dict, int, int, bool]:
    passes = [run.child("pass", "--check")]
    while run.elapsed() < seconds and run.fits("pass"):
        passes.append(run.child("pass"))
    setup_runs = list(passes)
    while len(setup_runs) < SETUP_SAMPLES and run.fits("setup"):
        setup_runs.append(run.child("setup", "--setup-only"))
    setups = [p["setup_s"] for p in setup_runs]

    print(f"seeds: {passes[0]['seeds']}")
    ops, attempted, failed, correct = tally(passes)
    walls = [p["wall_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    print_ops(ops)
    q1, med, q3 = quartiles(walls)
    per_pass = len(WORKLOADS[run.workload])
    raw = statistics.median(p["wall_raw_s"] for p in passes)
    print(f"wall_s       {med:.3f} s  (median of {len(walls)} passes, scaled to the "
          f"reference speed; quartiles {q1:.3f} .. {q3:.3f}; unscaled median {raw:.3f})")
    q1, med, q3 = quartiles(setups)
    raw = statistics.median(p["setup_raw_s"] for p in setup_runs)
    print(f"setup_s      {med:.3f} s  (median of {len(setups)}, scaled to the "
          f"reference speed; quartiles {q1:.3f} .. {q3:.3f}; unscaled median {raw:.3f})")
    print(f"peak_rss_mb  {statistics.median(rss):.1f} MB  (median of {len(rss)})")
    print(f"ops_failed   {failed}/{attempted}  "
          f"({failed // len(passes)} of {per_pass} per pass)")
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "ops_ok": (attempted - failed) / attempted,
    }
    return values, attempted, failed, correct


def traced(run: Runner, seconds: float, names: dict) -> tuple[dict, int, int, bool]:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    seed_tag = "shipped" if run.seed is None else str(run.seed)
    spans = out_dir / f"trace-{run.workload}-seed{seed_tag}.json"
    plain, traced_passes = [], []
    while not traced_passes or (run.elapsed() < seconds and run.fits("pair")):
        t0 = time.monotonic()
        plain.append(run.child("pass", *(() if plain else ("--check",))))
        traced_passes.append(run.child("traced", "--check", "--trace-out", str(spans)))
        for rec in traced_passes[-1]["ops"]:
            rec["traced"] = True
        run.longest["pair"] = max(run.longest.get("pair", 0.0), time.monotonic() - t0)

    print(f"seeds: {plain[0]['seeds']}")
    ops, attempted, failed, correct = tally(plain + traced_passes)
    print_ops(ops)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
    extra = {"runner.replay.s": statistics.median(p["replay_s"] for p in traced_passes),
             "trace.overhead_s": traced_wall - plain_wall}
    values = {}
    for name, unit in names.items():
        samples = [layers.metric(p["trace"], name, extra) for p in traced_passes]
        if unit in COUNT_UNITS and len(set(samples)) > 1:
            print(f"{name}: counts differ between traced passes: {samples}")
            correct = False
        values[name] = statistics.median(samples)
        print(f"{name:56} {values[name]:14.6g} {unit}")
    print(f"untraced wall_s {plain_wall:.3f} s, traced wall_s {traced_wall:.3f} s, "
          f"{len(traced_passes)} traced passes, spans in {spans.relative_to(ROOT)}")
    return values, attempted, failed, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="override every config's seed (default: shipped seeds)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if not (ROOT / "src" / "catqm" / "__init__.py").is_file():
            raise BenchError(f"no catqm sources under {ROOT / 'src'}")
        names = {m["name"]: m["unit"]
                 for m in spec["per_layer" if args.trace else "end_to_end"]}
        run = Runner(args.workload, args.seed)
        print(f"perfbench: workload {args.workload}, "
              f"seed {'shipped' if args.seed is None else args.seed}, "
              f"trace {args.trace}, {args.seconds:g} s")
        if args.trace:
            values, attempted, failed, correct = traced(run, args.seconds, names)
        else:
            values, attempted, failed, correct = end_to_end(run, args.seconds)
        missing = set(names) - set(values)
        if missing:
            raise BenchError(f"metrics not measured: {sorted(missing)}")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": values[n], "unit": u} for n, u in names.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
