"""Self-test of the aimcf benchmark: inputs repeat, checks can fail, counts repeat.

    python3 bench/selftest.py

It shows that the same seed gives byte-identical argv and problem files, that
each workload's check passes a real output and fails a perturbed one (a
missing root, a root off by 1e-6, a wrong approximant), that the
``classify-cylinder`` crash is recorded as a failure with its exception type,
and that traced counts repeat exactly.  Exits 0 if all of that holds, else 1.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import random
import sys

from run import OUT, ROOT, call_main, judge, load_program, run_traced, unit_of
from workloads import WORKLOADS, _diagnose_make, bessel_j, hermite_log_derivative

FAILED: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILED.append(what)


def check_inputs_repeat() -> None:
    scratch = OUT / "selftest"
    for w in WORKLOADS.values():
        for i in (0, 1, 7):
            first = w.op(3, i, scratch)
            body = (scratch / "problem.json").read_bytes()
            again = w.op(3, i, scratch)
            expect(first == again and body == (scratch / "problem.json").read_bytes(),
                   f"{w.name} op {i}: seed 3 repeats argv and problem file")
        first = w.op(3, 0, scratch)
        body = (scratch / "problem.json").read_bytes()
        other = w.op(4, 0, scratch)
        expect(other.argv != first.argv or body != (scratch / "problem.json").read_bytes(),
               f"{w.name}: seed 4 gives other inputs than seed 3")


def run_real(main, w, index: int):
    op = w.op(5, index, OUT / "selftest")
    dt, stdout, status = call_main(main, op.argv)
    return op, stdout, status


def judged(w, op, record) -> list[str]:
    return judge(w, op, json.dumps(record), 0)[0]


def check_solve(main) -> None:
    for name, shift in (("solve-oscillator", 1e-6), ("solve-quartic", 1e-3)):
        w = WORKLOADS[name]
        op, stdout, status = run_real(main, w, 0)
        expect(judge(w, op, stdout, status)[0] == [], f"{name}: real output passes")
        record = json.loads(stdout)
        missing = copy.deepcopy(record)
        del missing["outputs"]["eigenvalues"][1]
        expect(judged(w, op, missing) != [], f"{name}: a missing root fails")
        off = copy.deepcopy(record)
        off["outputs"]["eigenvalues"][2]["value"] += shift
        expect(judged(w, op, off) != [], f"{name}: a root off by {shift:g} fails")


def check_diagnose(main) -> None:
    w = WORKLOADS["diagnose-sweep"]
    levels = [w.op(5, i, OUT / "selftest").expect["level"] for i in range(40)]
    generic = levels.index(None)
    terminating = next(i for i, level in enumerate(levels) if level is not None)
    for i in (generic, terminating):
        op, stdout, status = run_real(main, w, i)
        reasons, digits = judge(w, op, stdout, status)
        kind = "terminating" if op.expect["level"] is not None else "generic"
        expect(reasons == [], f"diagnose-sweep: real {kind} output passes")
        record = json.loads(stdout)
        short = copy.deepcopy(record)
        short["outputs"]["table"].pop()
        expect(judged(w, op, short) != [], f"diagnose-sweep: a missing {kind} row fails")
        bad_det = copy.deepcopy(record)
        bad_det["outputs"]["determinant_ok"] = False
        expect(judged(w, op, bad_det) != [], f"diagnose-sweep: determinant_ok false fails")
        if op.expect["level"] is not None:
            ref = hermite_log_derivative(op.expect["level"], op.expect["x0"])
            expect(digits is not None and digits >= 8.0, f"diagnose-sweep: {digits} digits against {ref!r}")
            off = copy.deepcopy(record)
            off["outputs"]["table"][-1]["C"] = ref + 1e-6 * max(abs(ref), 1.0)
            expect(judged(w, op, off) != [], "diagnose-sweep: approximant off by 1e-6 fails")


class _TinyNegativeX0(random.Random):
    def uniform(self, a, b):
        return -1e-05 if (a, b) == (-1.5, 1.5) else super().uniform(a, b)


def check_diagnose_tiny_x0(main) -> None:
    op = _diagnose_make(_TinyNegativeX0(1), OUT / "selftest")
    _, stdout, status = call_main(main, op.argv)
    reasons = judge(WORKLOADS["diagnose-sweep"], op, stdout, status)[0]
    expect(reasons == [], f"diagnose-sweep: x0 = -1e-05 reaches the CLI as a value ({reasons})")


def check_classify(main) -> None:
    w = WORKLOADS["classify-cylinder"]
    op, stdout, status = run_real(main, w, 0)
    reasons, digits = judge(w, op, stdout, status)
    expect(len(reasons) == 1 and reasons[0].startswith("exception TypeError"),
           f"classify-cylinder: the renderer crash is recorded ({reasons})")
    expect(digits == 0.0, "classify-cylinder: a failed op has no correct digits")
    z = op.expect["z"]
    good = {"outputs": {
        "classification": {"case_label": "4a", "minimal_exists": True, "consistency": True},
        "pincherle": {"cf_limit": -bessel_j(1, z) / bessel_j(0, z)},
    }}
    expect(judged(w, op, good) == [], "classify-cylinder: a correct record passes")
    off = copy.deepcopy(good)
    off["outputs"]["pincherle"]["cf_limit"] += 1e-6
    expect(judged(w, op, off) != [], "classify-cylinder: cf_limit off by 1e-6 fails")
    inconsistent = copy.deepcopy(good)
    inconsistent["outputs"]["classification"]["consistency"] = False
    expect(judged(w, op, inconsistent) != [], "classify-cylinder: consistency false fails")


def check_counts_repeat(mods) -> None:
    for name, ops in (("solve-oscillator", 1), ("diagnose-sweep", 8)):
        w = dataclasses.replace(WORKLOADS[name], warmup=1, trace_ops=ops)
        runs = []
        for _ in range(2):
            tracer, _, plain, traced, _ = run_traced(mods, w, 9)
            expect(traced.failed == 0 and plain.failed == 0, f"{name}: traced ops pass")
            runs.append({k: v for k, v in tracer.layer_metrics(ops).items()
                         if unit_of(k) == "count"})
        expect(runs[0] == runs[1], f"{name}: traced counts repeat exactly")
        m = runs[0]
        if name == "solve-oscillator":
            expect(m["aim.evals_scan"] == 101, "solve-oscillator: 101 scan evaluations")
            expect(m["aim.evals"] == m["aim.evals_scan"] + m["aim.evals_refine"] + m["aim.evals_recheck"],
                   "solve-oscillator: evaluations split into scan, refine and recheck")
        else:
            expect(m["aim.evals"] == 0 and m["series.div_calls"] > 0,
                   "diagnose-sweep: no ladder evaluation, some series_div calls")


def main() -> int:
    os.chdir(ROOT)
    mods = load_program()
    main_fn = mods["cli"].main
    check_inputs_repeat()
    check_solve(main_fn)
    check_diagnose(main_fn)
    check_diagnose_tiny_x0(main_fn)
    check_classify(main_fn)
    check_counts_repeat(mods)
    print(f"{len(FAILED)} failed" if FAILED else "all passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
