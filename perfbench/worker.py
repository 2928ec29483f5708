"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME [--seed N] [--check]
        [--trace-out PATH] [--setup-only]

``run.py`` starts it with ``PYTHONPATH`` set to the checkout's ``src``.  It
times the import of catqm and the loading of the workload's configs (the
set-up), then runs each operation of the workload once, the way a user
runs ``catqm SUBCOMMAND --config PATH [--seed N]``.  Its last line of
output is one JSON object: set-up seconds, each operation's outcome,
seconds and body digest, and the process's peak resident memory.

``--check`` also replays every witness through ``runner.replay`` and, on a
workload with the extension certificate, recomputes it at a second radius;
neither is timed as part of the pass.  ``--trace-out`` runs the pass under
the tracer and writes its spans to the given file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

from checks import digest, report_problems
from tracer import Tracer
from workloads import (CERTIFICATE_VALUE, CERTIFICATE_WORD, CHECK_RADIUS,
                       SUBCOMMANDS, WORKLOADS, configs_of)

ROOT = Path(__file__).resolve().parent.parent

# The measuring host's speed swings by 25-50% over seconds to minutes, often
# across a whole run.  So operation times are also scaled by the speed of a
# fixed reference loop, timed from a timer signal every ``PROBE_INTERVAL_S``
# while the pass runs.  On that host the loop's time followed catqm's with
# elasticity 0.93 (see README.md, "Noise").  ``PROBE_NOMINAL_S`` is the
# loop's typical time there (2-vCPU Intel Xeon), so scaled times read as
# seconds at that speed.
PROBE_NOMINAL_S = 0.0037
PROBE_INTERVAL_S = 0.25


def config_path(name: str) -> str:
    return str(ROOT / "configs" / f"{name}.json")


def extension_certificate(radius: int) -> float:
    """The paper's finite-extension defect certificate, through the public
    API: the transfer of the orbit-averaged homogeneous Brooks
    quasimorphism, over all pairs of the extension ball."""
    from catqm import algebra as A
    ext = A.swap_extension()
    phi = A.transfer_extend(
        ext, A.orbit_average(ext, A.homogeneous_brooks_qm(CERTIFICATE_WORD)))
    return A.extension_defect(ext, phi, radius)


def probe_loop() -> int:
    """Fixed integer arithmetic, independent of catqm and of its heap."""
    total = 0
    for i in range(40000):
        total += i * i % 7
    return total


class HostSpeed:
    """Times ``probe_loop`` from a timer signal while active.

    The handler runs between bytecodes of whatever is executing, so its
    time is inside the operation's interval; ``scaled`` takes it out.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, seconds)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def wait_past(self, t: float):
        """Sleep until a probe has started after time ``t``."""
        while not self.samples or self.samples[-1][0] < t:
            time.sleep(PROBE_INTERVAL_S / 4)

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """Seconds from t0 to t1 without probe time, unscaled and scaled by
        the probes inside the interval (or the nearest ones)."""
        inside = [d for start, d in self.samples if t0 <= start < t1]
        nearest = sorted(self.samples,
                         key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))
        near = inside or [d for _, d in nearest[:4]]
        seconds = t1 - t0 - sum(inside)
        return seconds, seconds * PROBE_NOMINAL_S * len(near) / sum(near)


def run_cell(argv: list[str]) -> tuple[int, str]:
    from catqm import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_op(op, seed, tracer) -> tuple[dict, dict | None]:
    """Run one operation; returns its record and its report, if any."""
    if op.subcommand is None:
        key, fn, args = "bench.extension_certificate", extension_certificate, (op.radius,)
    else:
        argv = [op.subcommand, "--config", config_path(op.config)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        key, fn, args = f"runner.{op.subcommand}", run_cell, (argv,)
    record = {"op": op.name, "status": None, "exit": None, "error": None,
              "digest": None, "problems": []}
    record["t0"] = time.perf_counter()
    try:
        result = tracer.call(key, "runner", fn, *args) if tracer else fn(*args)
    except Exception as exc:  # a crash is a failed operation, not the end
        record["t1"] = time.perf_counter()
        record["status"] = "raised"
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record, None
    record["t1"] = time.perf_counter()

    if op.subcommand is None:
        record["status"] = "ok"
        record["digest"] = digest({"radius": op.radius, "value": result})
        if result != CERTIFICATE_VALUE:
            record["problems"].append(
                f"certificate is {result!r} at radius {op.radius}, "
                f"not {CERTIFICATE_VALUE}")
        return record, None
    code, text = result
    record["exit"] = code
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        record["status"] = "error"
        record["error"] = f"exit {code} without a report"
        return record, None
    body = report.get("body") if isinstance(report, dict) else None
    record["status"] = body.get("status") if isinstance(body, dict) else None
    record["digest"] = digest(body)
    record["problems"] = report_problems(report, op.subcommand, seed, code)
    return record, report


def check(workload: str, records: list[dict], reports: list) -> float:
    """Replay every report's witnesses and recheck the certificate at
    another radius; returns the seconds spent in replay."""
    from catqm import runner
    replay_s = 0.0
    for record, report in zip(records, reports):
        if report is None:
            continue
        t0 = time.perf_counter()
        try:
            ok = runner.replay(report)
        except Exception as exc:
            record["problems"].append(f"replay raised {type(exc).__name__}: {exc}")
            continue
        finally:
            replay_s += time.perf_counter() - t0
        if not ok:
            record["problems"].append("a witness does not replay")
    for op, record in zip(WORKLOADS[workload], records):
        if op.subcommand is None:
            value = extension_certificate(CHECK_RADIUS)
            if value != CERTIFICATE_VALUE:
                record["problems"].append(
                    f"certificate is {value!r} at radius {CHECK_RADIUS}, "
                    f"not {CERTIFICATE_VALUE}")
    return replay_s


def run_pass(workload: str, seed, do_check: bool, trace_out: str | None) -> dict:
    tracer = None
    if trace_out:
        tracer = Tracer()
        tracer.install("catqm")
        for sub in SUBCOMMANDS:
            tracer.declare(f"runner.{sub}", "runner")
    records, reports = [], []
    try:
        with HostSpeed() as speed:
            for op in WORKLOADS[workload]:
                record, report = run_op(op, seed, tracer)
                records.append(record)
                reports.append(report)
            speed.wait_past(records[-1]["t1"])
    finally:
        if tracer:
            tracer.restore()
    for record in records:
        record["s"], record["scaled_s"] = speed.scaled(record.pop("t0"),
                                                       record.pop("t1"))
    out = {"wall_s": sum(r["scaled_s"] for r in records),
           "wall_raw_s": sum(r["s"] for r in records), "ops": records,
           "replay_s": check(workload, records, reports) if do_check else None}
    if tracer:
        out["trace"] = tracer.summary()
        tracer.write_spans(trace_out, {"workload": workload, "seed": seed})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with HostSpeed() as speed:
        t0 = time.perf_counter()
        import catqm
        from catqm import cli, runner  # noqa: F401  (cli: part of what a user loads)
        configs = {c: runner.load_config(config_path(c))
                   for c in configs_of(args.workload)}
        t1 = time.perf_counter()
        speed.wait_past(t1)
    setup_raw_s, setup_s = speed.scaled(t0, t1)

    origin = Path(catqm.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        print(f"catqm was imported from {origin}, not from this checkout",
              file=sys.stderr)
        return 2
    out = {"setup_s": setup_s, "setup_raw_s": setup_raw_s,
           "seeds": {c: cfg.seed if args.seed is None else args.seed
                     for c, cfg in configs.items()}}
    if not args.setup_only:
        out.update(run_pass(args.workload, args.seed, args.check, args.trace_out))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
