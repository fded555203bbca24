"""Seeded workloads of the aimcf benchmark: inputs, references and output checks.

A workload turns ``(seed, op index)`` into one ``aimcf`` command line plus the
problem file it reads, and checks the JSON the command prints against a
reference the benchmark computes on its own.  The same seed always gives
byte-identical argv and problem files.

Why each workload exists:

* ``solve-oscillator``: refinement and the depth recheck dominate (384 of
  485 ladder evaluations per op); the symmetric centre L(x0) = 0.
* ``solve-quartic``: the 401-point scan dominates (401 of 641 evaluations),
  and each evaluation expands a quartic polynomial; the ladder never
  terminates, so accuracy comes from depth truncation.  A scan-side gain
  shows here more than on the oscillator, a refinement-side gain the other
  way round.
* ``diagnose-sweep``: short ops, mostly ``series_div`` inside ``pq_iterate``;
  the AIM ladder is never called, so an ``aim`` change should not move it.
  One op in four uses an odd integer E, where the fraction terminates early.
* ``classify-cylinder``: only ``analysis``, ``cf_approximants`` and CLI
  rendering run.  Every op of it fails on ``numpy.bool`` in the CLI's JSON
  renderer, and the benchmark reports that rather than avoiding it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

OSCILLATOR = {
    "lambda0": "2*x",
    "s0": "1 - E",
    "parameter": "E",
    "x0": 0.0,
    "order": 80,
    "n_max": 40,
}
# psi = exp(-3 x^2 / 2) f turns -psi'' + x^4 psi = E psi into this AIM form
QUARTIC = dict(OSCILLATOR, lambda0="6*x", s0="x^4 - 9*x^2 + 3 - E")
# lowest even-parity levels of -psi'' + x^4 psi = E psi (Hioe & Montroll 1975)
QUARTIC_LEVELS = (
    1.0603620904841829,
    3.7996730298013941,
    7.4556979379867383,
    11.644745511378162,
)
TOL = 1e-10
CYLINDER_LEVELS = 240
DIGITS_CAP = 15.0


@dataclass(frozen=True)
class Op:
    """One generated command line; ``expect`` feeds the workload's check."""

    argv: list[str]
    expect: dict
    reference: bool = True  # whether the check measures correct digits


@dataclass(frozen=True)
class Check:
    """Outcome of an output check: failed checks, and correct digits if known."""

    failures: list[str]
    digits: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: int  # untimed ops before the timed loop
    trace_ops: int  # fixed op count of a traced run, so its counts repeat
    make: Callable[[random.Random, Path], Op]
    check: Callable[[Op, dict], Check]

    def op(self, seed: int, index: int, out_dir: Path) -> Op:
        """Write the problem file of op ``index`` under ``out_dir``; return its argv."""
        out_dir.mkdir(parents=True, exist_ok=True)
        return self.make(random.Random(f"{self.name}/{seed}/{index}"), out_dir)


def digits(value: float, ref: float) -> float:
    """-log10 of the error relative to max(|ref|, 1), capped at DIGITS_CAP."""
    err = abs(value - ref) / max(abs(ref), 1.0)
    if err == 0.0:
        return DIGITS_CAP
    if not math.isfinite(err):
        return 0.0
    return min(DIGITS_CAP, max(0.0, -math.log10(err)))


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


# ----------------------------------------------------------------------
# solve


def _solve_make(problem: dict, e_min: float, e_max: float, grid: int):
    cell = (e_max - e_min) / (grid - 1)

    def make(rng: random.Random, out_dir: Path) -> Op:
        shift = rng.random() * cell
        search = {"e_min": e_min + shift, "e_max": e_max + shift, "grid": grid, "tol": TOL}
        path = out_dir / "problem.json"
        _write(path, dict(problem, search=search))
        return Op(["solve", path.as_posix()], {})

    return make


def _solve_check(refs: tuple[float, ...], atol: float, need_finite_residual: bool):
    def check(op: Op, record: dict) -> Check:
        roots = record["outputs"]["eigenvalues"]
        values = [r["value"] for r in roots]
        failures = []
        if len(roots) != len(refs):
            failures.append(f"expected {len(refs)} roots, got {len(roots)}")
        worst = DIGITS_CAP
        for ref in refs:
            if not values:
                worst = 0.0
                break
            near = min(values, key=lambda v: abs(v - ref))
            if not abs(near - ref) <= atol:
                failures.append(f"root {ref:.12g}: nearest {near!r} off by more than {atol:g}")
            worst = min(worst, digits(near, ref))
        if need_finite_residual:
            bad = [r["value"] for r in roots if not _finite(r["residual"])]
            if bad:
                failures.append(f"non-finite recheck residual at {bad}")
        return Check(failures, worst)

    return check


# ----------------------------------------------------------------------
# diagnose


def _diagnose_make(rng: random.Random, out_dir: Path) -> Op:
    x0 = rng.uniform(-1.5, 1.5)
    level = rng.randrange(6) if rng.random() < 0.25 else None
    e = 2.0 * level + 1.0 if level is not None else rng.uniform(0.5, 11.5)
    path = out_dir / "problem.json"
    _write(path, OSCILLATOR)
    # "--x0=-1e-05" form: argparse takes a detached "-1e-05" for an option
    argv = ["diagnose", path.as_posix(), f"--param-value={e!r}", f"--x0={x0!r}"]
    return Op(argv, {"x0": x0, "level": level}, reference=level is not None)


def hermite_log_derivative(k: int, x: float) -> float:
    """-H_k'(x) / H_k(x): -y'/y of the polynomial solution at E = 2k + 1."""
    h_prev, h = 0.0, 1.0  # H_{-1} (unused), H_0
    for j in range(k):
        h_prev, h = h, 2.0 * x * h - 2.0 * j * h_prev
    return -2.0 * k * h_prev / h


def _diagnose_check(op: Op, record: dict) -> Check:
    out = record["outputs"]
    table = out["table"]
    level = op.expect["level"]
    failures = []
    if out["determinant_ok"] is not True:
        failures.append("determinant_ok is not true")
    if level is None:
        if len(table) != OSCILLATOR["n_max"] + 1:
            failures.append(f"expected {OSCILLATOR['n_max'] + 1} table rows, got {len(table)}")
        return Check(failures)
    if out["termination_level"] != level:
        failures.append(f"termination level {out['termination_level']!r}, expected {level}")
    if len(table) != level + 1:
        failures.append(f"expected {level + 1} table rows, got {len(table)}")
    ref = hermite_log_derivative(level, op.expect["x0"])
    c = table[-1]["C"] if table else math.nan
    got = digits(c, ref) if _finite(c) else 0.0
    if got < 8.0:
        failures.append(f"terminated approximant {c!r} differs from {ref!r}")
    return Check(failures, got)


# ----------------------------------------------------------------------
# classify


def _cylinder_make(rng: random.Random, out_dir: Path) -> Op:
    z = rng.uniform(0.5, 2.0)
    block = {
        "pvals": [2.0 * (n + 1) / z for n in range(CYLINDER_LEVELS)],
        "qvals": [-1.0] * CYLINDER_LEVELS,
        "declared_power_law": {"a": 2.0 / z, "sigma": 1, "b": -1, "tau": 0},
    }
    path = out_dir / "problem.json"
    _write(path, dict(OSCILLATOR, classify=block))
    return Op(["classify", path.as_posix()], {"z": z})


def bessel_j(nu: int, z: float) -> float:
    """J_nu(z) from its power series; enough terms for |z| <= 2."""
    term = (z / 2.0) ** nu / math.factorial(nu)
    total = 0.0
    for m in range(40):
        total += term
        term *= -(z * z / 4.0) / ((m + 1) * (m + 1 + nu))
    return total


def _cylinder_check(op: Op, record: dict) -> Check:
    out = record["outputs"]
    cls = out["classification"]
    failures = []
    if cls["case_label"] != "4a":
        failures.append(f"case label {cls['case_label']!r}, expected '4a'")
    for key in ("minimal_exists", "consistency"):
        if cls[key] is not True:
            failures.append(f"{key} is not true")
    z = op.expect["z"]
    ref = -bessel_j(1, z) / bessel_j(0, z)
    cf_limit = out["pincherle"]["cf_limit"]
    if not (_finite(cf_limit) and abs(cf_limit - ref) <= 1e-10):
        failures.append(f"cf_limit {cf_limit!r} differs from -J1/J0 = {ref!r}")
    return Check(failures, digits(cf_limit, ref) if _finite(cf_limit) else 0.0)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-oscillator",
            warmup=1,
            trace_ops=4,
            make=_solve_make(OSCILLATOR, 0.0, 12.0, 101),
            check=_solve_check(tuple(2.0 * k + 1.0 for k in range(6)), 1e-8, True),
        ),
        Workload(
            "solve-quartic",
            warmup=1,
            trace_ops=4,
            make=_solve_make(QUARTIC, 0.3, 12.3, 401),
            check=_solve_check(QUARTIC_LEVELS, 1e-4, False),
        ),
        Workload(
            "diagnose-sweep",
            warmup=8,
            trace_ops=100,
            make=_diagnose_make,
            check=_diagnose_check,
        ),
        Workload(
            "classify-cylinder",
            warmup=8,
            trace_ops=100,
            make=_cylinder_make,
            check=_cylinder_check,
        ),
    )
}
