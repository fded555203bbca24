"""aimcf benchmark: seeded CLI workloads, checked outputs, per-layer tracing.

Run from anywhere; the benchmark works from the checkout that holds it::

    python3 bench/run.py --workload solve-oscillator --seed 1 --seconds 35 --trace 0

It drives ``aimcf.cli.main(argv)`` in-process, one op after another in a
closed loop from a single thread, on inputs made from ``--seed``.  One op is
one ``cli.main`` call: it reads the problem file, builds the spec, computes
and renders JSON.  Every op's output is checked against a reference.

``--trace 0`` times ops for ``--seconds`` after a few untimed warm-up ops and
reports the end-to-end metrics.  ``--trace 1`` runs a fixed number of ops
per workload (so that counts repeat exactly for a seed), each once untraced
and once traced, reports the per-layer metrics with the two medians side by
side, and writes the spans to ``bench/out/``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed op counts as infinitely slow and as having no correct
digits.  ``digits_min`` is, for each op with a reference, the fewest correct
digits among its reference values; the run reports the median over ops, so
that the figure does not fall just because more ops fit into a run.

The end-to-end times are given at reference machine speed.  On a shared
machine the speed of a core drifts by up to 1.7x within minutes, and CPU
time drifts with it, so raw wall times of two runs minutes apart are not
comparable.  A fixed kernel of pure Python and small numpy calls, which
shares no code with aimcf, is timed about every ``CAL_EVERY_S`` seconds; each
op's wall time is multiplied by ``CAL_REF_S`` over the mean of the two probes
around it.  On a 2-vCPU Xeon VM this cut the spread of the median op time
over 35 s windows of one recording from 0.14 to 0.03.  The raw wall times are
printed beside the scaled ones, and a traced run reports raw times only.
The benchmark pins itself, and so the interpreters it starts, to one CPU, so
that a probe always measures the core the timed work runs on; this cut the
spread of the scaled import time over runs from 0.22 to 0.05.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path("bench") / "out"  # relative to ROOT, so argv does not name the checkout
SETUP_REPEATS = 5
P90_MIN_OPS = 100
CAL_REPEATS = 5
CAL_EVERY_S = 0.2
# duration of one probe kernel at reference speed, close to what it takes on
# a quiet core of a 2-vCPU Xeon VM; fixed, so that scaled times compare
CAL_REF_S = 2e-4

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import aimcf.cli\n"
    "print(time.perf_counter() - t)\n"
)


def _probe_kernel() -> float:
    a = np.linspace(0.0, 1.0, 41)
    acc = 0.0
    for k in range(40):
        acc += float(np.convolve(a, a)[k])
        for j in range(40):
            acc = acc * 0.5 + j
    return acc


def probe() -> float:
    """Median duration of the fixed probe kernel: the machine's current speed."""
    times = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        _probe_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_setup() -> tuple[float, float]:
    """Median import time of aimcf.cli (numpy included) in fresh interpreters.

    Returns (scaled to reference speed, raw wall time).
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        done = subprocess.run(
            [sys.executable, "-E", "-c", _IMPORT_TIMER, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        dt = float(done.stdout.strip().splitlines()[-1])
        raw.append(dt)
        scaled.append(dt * CAL_REF_S / (0.5 * (before + probe())))
    return statistics.median(scaled), statistics.median(raw)


def load_program() -> dict:
    sys.path.insert(0, str(SRC))
    import aimcf.cli
    from aimcf import aim, analysis, cf, series

    if Path(aimcf.cli.__file__).resolve().parent != SRC / "aimcf":
        raise ImportError(f"aimcf imported from {aimcf.cli.__file__}, not {SRC}")
    return {"cli": aimcf.cli, "aim": aim, "cf": cf, "series": series, "analysis": analysis}


def call_main(main, argv: list) -> tuple[float, str, object]:
    """Run one op; return (wall seconds, stdout, exit code or exception)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            status: object = main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crash
            status = exc
        dt = time.perf_counter() - t0
    if isinstance(status, int) and status != 0:
        last_line = (err.getvalue().strip().splitlines() or [""])[-1]
        status = f"exit {status}: {last_line[:200]}"
    return dt, out.getvalue(), status


def judge(workload, op, stdout: str, status) -> tuple[list[str], float | None]:
    """Failure reasons (empty if the op passed) and correct digits, if known."""
    digits = 0.0 if op.reference else None
    if isinstance(status, BaseException):
        return [f"exception {type(status).__name__}: {status}"], digits
    if status != 0:
        return [str(status)], digits
    try:
        record = json.loads(stdout)
    except json.JSONDecodeError:
        return ["output is not JSON"], digits
    try:
        result = workload.check(op, record)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"output lacks an expected field: {type(exc).__name__}: {exc}"], digits
    return result.failures, result.digits


class Tally:
    """Outcomes of a sequence of ops."""

    def __init__(self):
        self.wall: list[float] = []
        self.scale: list[float] = []  # reference speed over measured speed
        self.ok: list[bool] = []
        self.digits: list[float] = []
        self.failures: list[tuple[int, str]] = []

    def add(self, index: int, dt: float, reasons: list[str], digits) -> None:
        self.wall.append(dt)
        self.scale.append(1.0)
        self.ok.append(not reasons)
        if digits is not None:
            self.digits.append(digits)
        self.failures.extend((index, r) for r in reasons)

    @property
    def attempted(self) -> int:
        return len(self.wall)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def times(self, scaled: bool) -> list[float]:
        """Op times, infinite for a failed op."""
        return [w * (s if scaled else 1.0) if ok else math.inf
                for w, s, ok in zip(self.wall, self.scale, self.ok)]

    def p50(self, scaled: bool = False) -> float:
        return statistics.median(self.times(scaled))

    def p90(self, scaled: bool = False) -> float:
        ranked = sorted(self.times(scaled))
        return ranked[math.ceil(0.9 * len(ranked)) - 1]

    def passed_per_s(self) -> float:
        """Passed ops per second of op time at reference speed."""
        busy = sum(w * s for w, s in zip(self.wall, self.scale))
        return (self.attempted - self.failed) / busy


def run_untraced(mods, workload, seed: int, seconds: float):
    main = mods["cli"].main
    out_dir = OUT / workload.name
    warm = Tally()
    for i in range(workload.warmup):
        op = workload.op(seed, i, out_dir)
        dt, stdout, status = call_main(main, op.argv)
        warm.add(i, dt, *judge(workload, op, stdout, status))
    timed = Tally()
    probes = []
    i = workload.warmup
    start = probed_at = time.perf_counter()
    last = probe()
    pending = 0  # ops since the last probe
    while True:
        op = workload.op(seed, i, out_dir)
        dt, stdout, status = call_main(main, op.argv)
        timed.add(i, dt, *judge(workload, op, stdout, status))
        i += 1
        pending += 1
        now = time.perf_counter()
        done = now - start >= seconds
        if done or now - probed_at >= CAL_EVERY_S:
            new = probe()
            probes.append(new)
            timed.scale[-pending:] = [CAL_REF_S / (0.5 * (last + new))] * pending
            last, pending, probed_at = new, 0, time.perf_counter()
        if done:
            break
    wall = time.perf_counter() - start
    return warm, timed, wall, statistics.median(probes)


def run_traced(mods, workload, seed: int):
    from tracing import Tracer

    main = mods["cli"].main
    out_dir = OUT / workload.name
    tracer = Tracer()
    warm, plain, traced = Tally(), Tally(), Tally()
    rows = []
    for i in range(workload.warmup):
        op = workload.op(seed, i, out_dir)
        dt, stdout, status = call_main(main, op.argv)
        warm.add(i, dt, *judge(workload, op, stdout, status))
    for k in range(workload.trace_ops):
        i = workload.warmup + k
        op = workload.op(seed, i, out_dir)
        evals_before = sum(1 for s in tracer.spans if s.name == "aim.aim_iterate")
        # alternate which twin runs first so that drift cancels
        for traced_run in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_run:
                with tracer.installed(mods):
                    dt, stdout, status = call_main(lambda a: tracer.run_op(i, main, a), op.argv)
                tally, t_traced = traced, dt
            else:
                dt, stdout, status = call_main(main, op.argv)
                tally, t_plain = plain, dt
            tally.add(i, dt, *judge(workload, op, stdout, status))
        evals = sum(1 for s in tracer.spans if s.name == "aim.aim_iterate") - evals_before
        rows.append((i, t_plain, t_traced, evals))
    return tracer, warm, plain, traced, rows


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric == "aim.s_per_eval":
        return "s"
    return "1" if metric.endswith("_frac") else "count"


def fmt(v: float) -> str:
    return f"{v:.6g}"


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aimcf" / "cli.py").is_file():
        print(f"error: no aimcf sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]

    setup = measure_setup() if not args.trace else None
    mods = load_program()
    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
    }
    print("run", json.dumps(meta, sort_keys=True))

    if args.trace:
        tracer, warm, plain, tally, rows = run_traced(mods, workload, args.seed)
        span_file = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(span_file)
        metrics = tracer.layer_metrics(workload.trace_ops)
        # wall times of every twin, failed or not: this compares cost, not outcome
        traced_p50, plain_p50 = statistics.median(tally.wall), statistics.median(plain.wall)
        metrics["trace.op_p50_s"] = traced_p50
        metrics["trace.untraced_op_p50_s"] = plain_p50
        metrics["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0
        print(f"{'op':>5} {'untraced_s':>11} {'traced_s':>11} {'aim.evals':>9}")
        for i, t_plain, t_traced, evals in rows:
            print(f"{i:>5} {fmt(t_plain):>11} {fmt(t_traced):>11} {evals:>9}")
        print(f"spans: {len(tracer.spans)} written to {span_file}")
        counted = (plain, tally)
        units = {k: unit_of(k) for k in metrics}
    else:
        warm, tally, wall, probe_s = run_untraced(mods, workload, args.seed, args.seconds)
        print(f"warm-up: {warm.attempted} ops in {fmt(sum(warm.wall))} s, {warm.failed} failed")
        print(f"timed:   {tally.attempted} ops in {fmt(wall)} s, {tally.failed} failed; "
              f"probe median {fmt(probe_s)} s against {fmt(CAL_REF_S)} s at reference speed")
        metrics = {
            "setup_s": setup[0],
            "op_p50_s": tally.p50(scaled=True),
            "ops_per_s": tally.passed_per_s(),
            "digits_min": statistics.median(tally.digits) if tally.digits else 0.0,
        }
        units = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "digits_min": "digits"}
        shown = {
            **metrics,
            "setup_wall_s": setup[1],
            "op_p50_wall_s": tally.p50(),
            "ops_per_wall_s": (tally.attempted - tally.failed) / wall,
            "fail_frac": tally.failed / tally.attempted,
        }
        if tally.attempted >= P90_MIN_OPS:
            shown["op_p90_s"] = tally.p90(scaled=True)
            shown["op_p90_wall_s"] = tally.p90()
        for name in sorted(shown):
            unit = units.get(name) or ("1/s" if name.startswith("ops_per") else unit_of(name))
            print(f"  {name:<15} {fmt(shown[name]):>12} {unit}")
        counted = (tally,)

    failures = [f for t in (warm, *counted) for f in t.failures]
    if failures:
        reasons: dict[str, int] = {}
        for _, reason in failures:
            key = reason.split(":")[0]
            reasons[key] = reasons.get(key, 0) + 1
        print(f"failures: {len(failures)} ({json.dumps(reasons, sort_keys=True)})")
        for index, reason in failures[:3]:
            print(f"  op {index}: {reason}")
    result = {
        "correct": not failures,
        "attempted": sum(t.attempted for t in counted),
        "failed": sum(t.failed for t in counted),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
