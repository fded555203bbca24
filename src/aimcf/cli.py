"""Batch front end: solve, diagnose, and classify eigenproblem files.

Problem files are JSON:

    {
      "lambda0": "2*x", "s0": "1 - E", "parameter": "E",
      "x0": 0.0, "order": 80, "n_max": 40,
      "search": {"e_min": 0.0, "e_max": 12.0, "grid": 101, "tol": 1e-10},
      "classify": {"declared_power_law": {"a": 2, "sigma": 1, "b": -1, "tau": 0}}
    }

Output is deterministic JSON (:func:`_render_json`), or CSV read off that
JSON document (:func:`_render_csv`), so the two formats show the same values.
"""

from __future__ import annotations

import argparse
import enum
import functools
import io
import json
import math
import sys
import warnings
from json.encoder import encode_basestring_ascii
from typing import Any, Optional, Sequence

import numpy as np

from . import analysis
from .aim import ProblemSpec, find_eigenvalues
from .cf import cf_approximants, cf_determinants, cf_equiv_unit, detect_termination, pq_iterate
from .errors import (
    AimError,
    CenterMismatch,
    DeterminantMismatchWarning,
    ParseOrEvalError,
    ValidationError,
    require_array_size,
    require_number,
    require_reals,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _render_json(obj: Any) -> str:
    """``json.dumps(record, sort_keys=True, indent=2)`` of a record, written in
    one recursive pass.

    The exact types come first: float, str, dict (whose keys must be str),
    list and tuple, int, None and bool; a non-finite float is written as the
    string "nan", "inf" or "-inf".  Then, by isinstance, a ``NamedTuple`` is
    written as an object of its fields, an enum member as its value, a complex
    number as ``{"im", "re"}``, and a numpy scalar or array as its
    ``tolist()``.  Anything else raises TypeError.
    """
    out: list[str] = []

    def write(obj: Any, indent: str) -> None:
        kind = type(obj)
        if kind is float:
            text = float.__repr__(obj)
            out.append(text if math.isfinite(obj) else '"' + text + '"')
        elif kind is str:
            out.append(encode_basestring_ascii(obj))
        elif kind is dict:
            inner, sep = indent + "  ", "{\n"
            for key in sorted(obj):
                out.append(sep + inner + encode_basestring_ascii(key) + ": ")
                write(obj[key], inner)
                sep = ",\n"
            out.append("\n" + indent + "}" if obj else "{}")
        elif kind is list or kind is tuple:
            inner, sep = indent + "  ", "[\n"
            for item in obj:
                out.append(sep + inner)
                write(item, inner)
                sep = ",\n"
            out.append("\n" + indent + "]" if obj else "[]")
        elif kind is int:
            out.append(int.__repr__(obj))
        elif obj is None or kind is bool:
            out.append("null" if obj is None else "true" if obj else "false")
        elif isinstance(obj, tuple) and hasattr(obj, "_asdict"):
            write(obj._asdict(), indent)
        elif isinstance(obj, enum.Enum):
            write(obj.value, indent)
        elif isinstance(obj, complex):
            write({"im": obj.imag, "re": obj.real}, indent)
        elif isinstance(obj, (np.generic, np.ndarray)):
            write(obj.tolist(), indent)
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    write(obj, "")
    return "".join(out)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


# the classify block's keys that hold a declaration; it may hold at most one
_DECLARATIONS = ("declared_power_law", "declared_ba_coeffs")


def _check_classify(block: Any) -> None:
    """Check the file shape of a classify block: raw sequences as a pair of
    lists of finite reals, and at most one declaration, an object that
    :func:`~aimcf.analysis.check_declared` passes at load, under every command."""
    _require(isinstance(block, dict), "'classify' must be an object")
    _require(
        ("pvals" in block) == ("qvals" in block),
        "raw sequences need both 'pvals' and 'qvals'",
    )
    for key in ("pvals", "qvals"):
        if key in block:
            require_reals(block[key], key)
    _require(
        not set(_DECLARATIONS) <= block.keys(),
        "declare either 'declared_power_law' or 'declared_ba_coeffs', not both",
    )
    for name in _DECLARATIONS:
        if name in block:
            _require(isinstance(block[name], dict), f"'{name}' must be an object")
            analysis.check_declared(block[name])


def _load_problem(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read problem file: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an over-long integer literal
        raise ValidationError(f"problem file is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "problem file must be a JSON object")
    for key in ("lambda0", "s0", "parameter", "x0", "order", "n_max"):
        _require(key in raw, f"problem file missing required key '{key}'")
    _require(isinstance(raw["lambda0"], str), "'lambda0' must be a string expression")
    _require(isinstance(raw["s0"], str), "'s0' must be a string expression")
    _require(isinstance(raw["parameter"], str), "'parameter' must be a string")
    for key, integer in (("x0", False), ("order", True), ("n_max", True)):
        require_number(raw[key], f"'{key}'", integer)
    search = raw.get("search")
    if search is not None:
        _require(isinstance(search, dict), "'search' must be an object")
        for key in ("e_min", "e_max"):
            _require(key in search, f"'search' missing '{key}'")
        for key, integer in (("e_min", False), ("e_max", False), ("grid", True), ("tol", False)):
            if key in search:
                require_number(search[key], f"'{key}'", integer)
        _require(
            float(search["e_min"]) < float(search["e_max"]),
            "search requires e_min < e_max",
        )
    if raw.get("classify") is not None:
        _check_classify(raw["classify"])
    return raw


def _build_spec(raw: dict, args: argparse.Namespace) -> ProblemSpec:
    x0 = args.x0 if args.x0 is not None else float(raw["x0"])
    order = getattr(args, "order", None)  # solve has no --order
    order = order if order is not None else raw["order"]
    n_max = args.n if args.n is not None else raw["n_max"]
    return ProblemSpec.from_strings(
        raw["lambda0"],
        raw["s0"],
        raw["parameter"],
        x0=x0,
        order=order,
        n_max=n_max,
    )


def _inputs_echo(raw: dict, spec: ProblemSpec, args: argparse.Namespace) -> dict:
    echo = {
        "lambda0": raw["lambda0"],
        "s0": raw["s0"],
        "parameter": raw["parameter"],
        "x0": spec.x0,
        "order": spec.order,
        "n_max": spec.n_max,
    }
    if getattr(args, "param_value", None) is not None:
        echo["param_value"] = args.param_value
    return echo


def _warning_strings(caught: list[warnings.WarningMessage]) -> list[str]:
    return [f"{w.category.__name__}: {w.message}" for w in caught]


def _run_solve(raw: dict, spec: ProblemSpec, args: argparse.Namespace) -> dict:
    search = raw.get("search")
    _require(search is not None, "solve requires a 'search' block")
    e_min = float(search["e_min"])
    e_max = float(search["e_max"])
    grid = args.grid if args.grid is not None else search.get("grid", 101)
    tol = args.tol if args.tol is not None else float(search.get("tol", 1e-10))
    warn_list: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        roots = find_eigenvalues(spec, e_min, e_max, grid, tol=tol)
    warn_list.extend(_warning_strings(caught))
    if not roots:
        warn_list.append(
            f"no eigenvalues found in [{e_min:g}, {e_max:g}] at depth {spec.n_max}"
        )
    outputs = {
        "count": len(roots),
        "eigenvalues": [
            {"n_used": r.n_used, "residual": r.residual, "value": r.value}
            for r in roots
        ],
        "search": {"e_max": e_max, "e_min": e_min, "grid": grid, "tol": tol},
    }
    return {"outputs": outputs, "warnings": warn_list}


def _run_diagnose(raw: dict, spec: ProblemSpec, args: argparse.Namespace) -> dict:
    _require(
        args.param_value is not None,
        "diagnose requires --param-value for the fixed parameter",
    )
    warn_list: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pq = pq_iterate(spec, args.param_value)
        termination = detect_termination(pq)
        pvals = pq.p.tolist()
        qvals = pq.q.tolist()
        if pq.depth < spec.n_max:
            warn_list.append(
                f"ladder stopped at level {pq.stop_level} ({pq.stop_reason}); "
                "table is partial"
            )
        if not any(pvals):
            warn_list.append(analysis.SYMMETRIC_CENTRE)
        state = cf_approximants(pq.p, pq.q)  # arrays pass require_pq whole
        cf_determinants(state)
        cvals = state.C.tolist()
        table = []
        for n, c in enumerate(cvals):
            table.append(
                {
                    "C": c,
                    "dC": c - cvals[n - 1] if n else math.nan,
                    "n": n,
                    "p": pvals[n],
                    "q": qvals[n],
                }
            )
        verdict = None
        bound_violations = None
        try:
            ptilde = cf_equiv_unit(pq.p, pq.q)
        except AimError as exc:
            warn_list.append(f"unit-form diagnostics skipped: {exc}")
            ptilde = None
        if ptilde is not None and all(p > 0.0 for p in ptilde):
            verdict = analysis.stern_seidel(ptilde)
            if all(p >= 1.0 for p in ptilde):
                unit_state = cf_approximants(ptilde, np.ones(ptilde.size))
                rows = analysis.bound_check(unit_state)
                bound_violations = sum(1 for *_, ok in rows if not ok)
        elif ptilde is not None:
            warn_list.append(
                "unit-form coefficients are not all positive; convergence "
                "verdict skipped"
            )
    warn_list.extend(_warning_strings(caught))
    det_ok = not any(issubclass(w.category, DeterminantMismatchWarning) for w in caught)
    outputs = {
        "bound_violations": bound_violations,
        "convergence": verdict,
        "determinant_ok": det_ok,
        "table": table,
        "termination_level": termination,
    }
    return {"outputs": outputs, "warnings": warn_list}


def _classify_sequences(
    raw: dict, spec: ProblemSpec, args: argparse.Namespace
) -> tuple[Sequence[float], Sequence[float], Optional[dict]]:
    block = raw.get("classify") or {}
    declared = next((block[name] for name in _DECLARATIONS if name in block), None)
    if "pvals" in block:
        return block["pvals"], block["qvals"], declared
    _require(
        args.param_value is not None,
        "classify requires --param-value unless raw sequences are given",
    )
    pq = pq_iterate(spec, args.param_value)
    return pq.p, pq.q, declared


def _run_classify(raw: dict, spec: ProblemSpec, args: argparse.Namespace) -> dict:
    warn_list: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pvals, qvals, declared = _classify_sequences(raw, spec, args)
        report = analysis.classify(pvals, qvals, declared=declared)
    warn_list.extend(_warning_strings(caught))
    classification = report._asdict()
    outputs = {
        "classification": classification,
        "pincherle": classification.pop("pincherle"),
    }
    return {"outputs": outputs, "warnings": warn_list}


# command -> (output table, columns); other commands flatten to key/value rows
_CSV_TABLES = {
    "solve": ("eigenvalues", ["value", "residual", "n_used"]),
    "diagnose": ("table", ["n", "p", "q", "C", "dC"]),
}


def _render_csv(record: dict) -> str:
    """Flatten the command's main table; sweep runs gain a leading x0 column."""
    import csv  # here, so that JSON output does not pay for its import
    runs = record.get("runs", [record])
    sweeping = "runs" in record
    table = _CSV_TABLES.get(record["command"])
    header = table[1] if table else ["key", "value"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow((["x0"] if sweeping else []) + header)
    for run in runs:
        prefix = [run["inputs"]["x0"]] if sweeping else []
        if table:
            rows = [[row[c] for c in header] for row in run["outputs"][table[0]]]
        else:
            flat = _flatten(run["outputs"], "")
            rows = [[key, flat[key]] for key in sorted(flat)]
        for row in rows:
            writer.writerow(prefix + row)
    return out.getvalue()


def _flatten(obj: Any, prefix: str) -> dict[str, Any]:
    flat: dict[str, Any] = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            flat.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            flat.update(_flatten(v, f"{prefix}{i}."))
    else:
        flat[prefix.rstrip(".")] = obj
    return flat


def _parse_sweep(text: str) -> list[float]:
    parts = text.split(":")
    _require(len(parts) == 3, "--sweep-x0 expects 'start:stop:steps'")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"bad --sweep-x0 value: {exc}") from exc
    _require(steps >= 1, "--sweep-x0 steps must be >= 1")
    require_array_size(steps, "--sweep-x0 steps")
    return [float(v) for v in np.linspace(start, stop, steps)]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call;
    parsing leaves it unchanged, so each call starts from its defaults.  Each
    subcommand registers only the flags it reads: ``--grid`` and ``--tol``
    for solve, ``--order`` and ``--param-value`` for diagnose and classify
    (solve binds its expressions at n_max + 2, whatever the order)."""
    parser = argparse.ArgumentParser(
        prog="aimcf",
        description="Eigenproblem solver and recurrence diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "scan the parameter range for eigenvalues"),
        ("diagnose", "tabulate ladder coefficients and approximants at fixed parameter"),
        ("classify", "label the recurrence asymptotics and check minimality"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("problem_file", help="JSON problem description")
        if name != "solve":
            p.add_argument("--order", type=int, default=None, help="series truncation order")
        p.add_argument("--n", type=int, default=None, help="iteration depth")
        p.add_argument("--x0", type=float, default=None, help="expansion center")
        if name == "solve":
            p.add_argument("--grid", type=int, default=None, help="scan grid points")
            p.add_argument("--tol", type=float, default=None, help="root tolerance")
        else:
            p.add_argument(
                "--param-value", type=float, default=None, help="fixed parameter value"
            )
        p.add_argument(
            "--format", choices=("json", "csv"), default="json", help="output format"
        )
        p.add_argument(
            "--sweep-x0",
            default=None,
            metavar="A:B:STEPS",
            help="repeat the command over evenly spaced centers",
        )
    return parser


_RUNNERS = {
    "solve": _run_solve,
    "diagnose": _run_diagnose,
    "classify": _run_classify,
}


def _single_record(raw: dict, args: argparse.Namespace) -> dict:
    spec = _build_spec(raw, args)
    body = _RUNNERS[args.command](raw, spec, args)
    return {
        "command": args.command,
        "inputs": _inputs_echo(raw, spec, args),
        "outputs": body["outputs"],
        "warnings": body["warnings"],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        raw = _load_problem(args.problem_file)
        if args.sweep_x0 is not None:
            records = []
            for x0 in _parse_sweep(args.sweep_x0):
                sub_args = argparse.Namespace(**vars(args))
                sub_args.x0 = x0
                records.append(_single_record(raw, sub_args))
            record: dict = {
                "command": args.command,
                "runs": records,
                "sweep_parameter": "x0",
            }
        else:
            record = _single_record(raw, args)
    except (ValidationError, ParseOrEvalError, CenterMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AimError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    text = _render_json(record)
    if args.format == "csv":
        sys.stdout.write(_render_csv(json.loads(text)))
    else:
        print(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
