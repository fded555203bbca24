"""End-to-end command runs: JSON/CSV output, exit codes, determinism."""

import argparse
import dataclasses
import enum
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from aimcf import cli
from aimcf.cli import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    _render_json,
    build_parser,
    main,
)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


HO_PROBLEM = {
    "lambda0": "2*x",
    "s0": "1 - E",
    "parameter": "E",
    "x0": 0.0,
    "order": 60,
    "n_max": 30,
    "search": {"e_min": 0.0, "e_max": 8.0, "grid": 41, "tol": 1e-10},
}


@pytest.fixture
def ho_file(tmp_path):
    return _write(tmp_path, "ho.json", HO_PROBLEM)


@pytest.fixture
def const_file(tmp_path):
    return _write(
        tmp_path,
        "const.json",
        {
            "lambda0": "3",
            "s0": "4 + 0*E",
            "parameter": "E",
            "x0": 0.0,
            "order": 70,
            "n_max": 60,
        },
    )


@pytest.fixture
def const_seq_file(tmp_path):
    return _write(
        tmp_path,
        "seq.json",
        {
            "lambda0": "3",
            "s0": "4 + 0*E",
            "parameter": "E",
            "x0": 0.0,
            "order": 70,
            "n_max": 60,
            "classify": {"pvals": [3.0] * 60, "qvals": [4.0] * 60},
        },
    )


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _param(command, value):
    """``--param-value value`` where ``command`` reads it: solve scans instead."""
    return [] if command == "solve" else ["--param-value", value]


def _order(command, value):
    """The file change and arguments that set the order to ``value``:
    ``--order`` where ``command`` reads it, the file for solve, which has none."""
    return ({"order": value}, []) if command == "solve" else ({}, ["--order", str(value)])


# [DERIVED] exact spectrum 2k+1 through the full command path
def test_solve_finds_oscillator_spectrum(ho_file, capsys):
    code, out, err = _run(capsys, ["solve", ho_file])
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["command"] == "solve"
    assert "seed" not in record
    values = [r["value"] for r in record["outputs"]["eigenvalues"]]
    np.testing.assert_allclose(values, [1.0, 3.0, 5.0, 7.0], atol=1e-8)
    assert record["outputs"]["count"] == 4
    for r in record["outputs"]["eigenvalues"]:
        assert r["n_used"] == 30
        assert float(r["residual"]) < 1e-6


def test_json_output_is_deterministic_and_round_trips(const_seq_file, capsys):
    code1, out1, _ = _run(capsys, ["classify", const_seq_file])
    code2, out2, _ = _run(capsys, ["classify", const_seq_file])
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    record = json.loads(out1)
    assert "seed" not in record
    # canonical form: sorted keys, two-space indent, shortest float repr
    assert out1 == json.dumps(record, sort_keys=True, indent=2) + "\n"


def test_classify_constants_labels_growth_case(const_seq_file, capsys):
    code, out, _ = _run(capsys, ["classify", const_seq_file])
    assert code == EXIT_OK
    record = json.loads(out)
    cls = record["outputs"]["classification"]
    assert cls["case_label"] == "1a"
    assert cls["minimal_exists"] is True
    assert cls["consistency"] is True
    assert abs(cls["numeric_dominant_ratio"] - 4.0) < 1e-8
    assert abs(cls["numeric_minimal_ratio"] + 1.0) < 1e-8
    pin = record["outputs"]["pincherle"]
    assert abs(pin["cf_limit"] - 1.0) < 1e-10
    assert pin["agreement"] < 1e-10


# [DERIVED] cylinder recurrence x_{n+1} = 2(n+1) x_n - x_{n-1}: its declared
# power law matches the numeric ratios, so the consistency flag is true
def test_classify_cylinder_recurrence_reports_consistency(tmp_path, capsys):
    path = _write(
        tmp_path,
        "cyl.json",
        dict(
            HO_PROBLEM,
            classify={
                "pvals": [2.0 * (n + 1) for n in range(240)],
                "qvals": [-1.0] * 240,
                "declared_power_law": {"a": 2, "sigma": 1, "b": -1, "tau": 0},
            },
        ),
    )
    code, out, _ = _run(capsys, ["classify", path])
    assert code == EXIT_OK
    cls = json.loads(out)["outputs"]["classification"]
    assert cls["case_label"] == "4a"
    assert cls["consistency"] is True


# p[0] * p[1] underflows to 0 although no p is zero; t_1 = 2e100 is finite
def test_classify_tiny_p_products_are_not_zero_p(tmp_path, capsys):
    block = {"pvals": [1e-200 * (n + 1) for n in range(40)], "qvals": [-1e-300] * 40}
    path = _write(tmp_path, "tiny.json", dict(HO_PROBLEM, classify=block))
    code, out, err = _run(capsys, ["classify", path])
    assert code == EXIT_OK, err
    cls = json.loads(out)["outputs"]["classification"]
    assert cls["q_limit"] == pytest.approx(4e100 / (39 * 40), rel=1e-15)


# recorded before the approximant recurrence moved onto the shared runner;
# E = 7 terminates at level 3
@pytest.mark.parametrize("e", ["7.25", "7.0"])
def test_diagnose_golden_output(tmp_path, capsys, e):
    path = _write(tmp_path, "osc.json", dict(HO_PROBLEM, x0=0.3, order=80, n_max=40))
    code, out, _ = _run(capsys, ["diagnose", path, f"--param-value={e}"])
    assert code == EXIT_OK
    golden = Path(__file__).parent / "golden" / f"diagnose_oscillator_x0.3_E{e}.json"
    assert out == golden.read_text(encoding="utf-8")


# recorded before series division by a constant took one vector operation
# and before the reduction of records to JSON types dispatched on exact
# types; three runs, one at a negative centre, under the sweep's "runs"
# record; the x0 = 0 run gained the warning that names the symmetric centre
# (every p_n is 0) later
def test_diagnose_sweep_golden_output(tmp_path, capsys):
    path = _write(tmp_path, "osc.json", dict(HO_PROBLEM, order=80, n_max=40))
    argv = ["diagnose", path, "--param-value", "7.25", "--sweep-x0=-0.9:0.9:3"]
    code, out, _ = _run(capsys, argv)
    assert code == EXIT_OK
    golden = Path(__file__).parent / "golden" / "diagnose_oscillator_sweep-0.9_0.9_3_E7.25.json"
    assert out == golden.read_text(encoding="utf-8")


# recorded before a ladder level whose q is constant in x skipped its
# division; at x0 = 0, p[0] = -0.0 and the signed-zero ratio makes p[1] +0.0
# (the warning that names the symmetric centre was added later)
def test_diagnose_signed_zero_golden_output(tmp_path, capsys):
    path = _write(tmp_path, "negx.json", dict(HO_PROBLEM, lambda0="-x", order=80, n_max=40))
    code, out, _ = _run(capsys, ["diagnose", path, "--param-value=0.5"])
    assert code == EXIT_OK
    golden = Path(__file__).parent / "golden" / "diagnose_negx_x0_E0.5.json"
    assert out == golden.read_text(encoding="utf-8")


SOLVE_GOLDEN = {
    "oscillator": dict(
        HO_PROBLEM,
        order=80,
        n_max=40,
        search={"e_min": 0.0444, "e_max": 12.0444, "grid": 101, "tol": 1e-10},
    ),
    "quartic": dict(
        HO_PROBLEM,
        lambda0="6*x",
        s0="x^4 - 9*x^2 + 3 - E",
        order=80,
        n_max=40,
        search={"e_min": 0.3111, "e_max": 12.3111, "grid": 401, "tol": 1e-10},
    ),
}
# the oscillator with S written as a quotient by a constant, off centre:
# every grid and refinement binding divides by the constant series 2
SOLVE_GOLDEN["oscillator_div_x0.3"] = dict(
    SOLVE_GOLDEN["oscillator"], s0="(2 - 2*E)/2", x0=0.3
)
# L depends on E, so no side of the search is parameter-free; most of its
# truncation roots fail the depth recheck, which pins those warnings too
SOLVE_GOLDEN["lambda_with_E"] = dict(
    SOLVE_GOLDEN["oscillator"], lambda0="2*x - E*x^3/(4 + E)", s0="x^2 - E"
)


# the two solve problems of the benchmark, on grids shifted by 0.37 of a
# cell; recorded before the batched scan skipped one-sided columns, so a
# leaner kernel must print the same bytes.  The constant-divisor variant was
# recorded before series division took its one-vector path, and the one with
# E in L before the search bound its inputs once per search.
@pytest.mark.parametrize("name", sorted(SOLVE_GOLDEN))
def test_solve_golden_output(tmp_path, capsys, name):
    path = _write(tmp_path, f"{name}.json", SOLVE_GOLDEN[name])
    code, out, _ = _run(capsys, ["solve", path])
    assert code == EXIT_OK
    golden = Path(__file__).parent / "golden" / f"solve_{name}_shift0.37.json"
    assert out == golden.read_text(encoding="utf-8")


# the grid point E = 2 cannot be bound (its S divides by zero), so the grid
# is bound point by point: the roots and the skip warning of that path,
# recorded before the search read its cell tests from the scan table
def test_solve_golden_output_with_skipped_grid_point(tmp_path, capsys):
    problem = dict(
        HO_PROBLEM,
        s0="(1 - E)*(E - 2)/(E - 2)",
        search={"e_min": 0.5, "e_max": 5.5, "grid": 21, "tol": 1e-11},
    )
    code, out, _ = _run(capsys, ["solve", _write(tmp_path, "skip.json", problem)])
    assert code == EXIT_OK
    golden = Path(__file__).parent / "golden" / "solve_skipped_grid_point_E2.json"
    assert out == golden.read_text(encoding="utf-8")


# a sum of 3000 terms parses without recursion, but its tree is too deep to
# evaluate, whether E sits at its deepest leaf or at the top: an input error.
# A parameter-side node past double range is a numeric failure, met on the
# grid and again at the first grid point bound alone
@pytest.mark.parametrize(
    "s0, code, message",
    [
        ("+".join(["x"] * 3000) + "+E", EXIT_INPUT, "error: expression is nested too"),
        ("E+" + "+".join(["x"] * 3000), EXIT_INPUT, "error: expression is nested too"),
        ("(1e200*E)^2", EXIT_NUMERIC, "numeric failure: Overflow: "),
    ],
    ids=["deep-E-last", "deep-E-first", "overflow"],
)
def test_solve_exit_code_of_failing_expression(tmp_path, capsys, s0, code, message):
    path = _write(tmp_path, "bad.json", dict(HO_PROBLEM, s0=s0))
    got, out, err = _run(capsys, ["solve", path])
    assert (got, out) == (code, "")
    assert err.startswith(message)


_CYLINDER = {"pvals": [2.0 * (n + 1) for n in range(240)], "qvals": [-1.0] * 240}
CLASSIFY_GOLDEN = {
    "cylinder_z1": dict(
        HO_PROBLEM,
        classify=dict(
            _CYLINDER, declared_power_law={"a": 2, "sigma": 1, "b": -1, "tau": 0}
        ),
    ),
    "constants_3_4": dict(HO_PROBLEM, classify={"pvals": [3.0] * 60, "qvals": [4.0] * 60}),
}


# recorded with t_n = -4 q_n / (p_{n-1} p_n) and Miller's estimates read as
# -C_N from the fraction's one forward run, whose rounding moved the
# cylinder's minimal ratio by 9.7e-16 relative against the backward passes
@pytest.mark.parametrize("name", sorted(CLASSIFY_GOLDEN))
def test_classify_golden_output(tmp_path, capsys, name):
    path = _write(tmp_path, f"{name}.json", CLASSIFY_GOLDEN[name])
    code, out, _ = _run(capsys, ["classify", path])
    assert code == EXIT_OK
    golden = Path(__file__).parent / "golden" / f"classify_{name}.json"
    assert out == golden.read_text(encoding="utf-8")


# the cylinder recurrence on 40 levels, declared as 1/n coefficient series:
# one problem for each branch of birkhoff_adams
_BA_DECLARED = {
    "distinct": {"a_coeffs": [-3.0, 0.5], "b_coeffs": [2.0, 0.1], "k_max": 3},
    "double_root": {"a_coeffs": [-2.0, 0.3], "b_coeffs": [1.0, 0.5]},
    "equal_exponent": {"a_coeffs": [-2.0, 1.0, 0.2], "b_coeffs": [1.0, -1.0, 0.1]},
}
CLASSIFY_BA_GOLDEN = {
    name: dict(
        HO_PROBLEM,
        classify={
            "pvals": [2.0 * (n + 1) for n in range(40)],
            "qvals": [-1.0] * 40,
            "declared_ba_coeffs": declared,
        },
    )
    for name, declared in _BA_DECLARED.items()
}


# recorded before the JSON writer took over the reduction of records to JSON
# types: complex roots, exponents and coefficient tables, and records nested
# two deep (ba_data.double_root, ba_data.equal_exponent)
@pytest.mark.parametrize("name", sorted(CLASSIFY_BA_GOLDEN))
def test_classify_birkhoff_adams_golden_output(tmp_path, capsys, name):
    path = _write(tmp_path, f"{name}.json", CLASSIFY_BA_GOLDEN[name])
    code, out, _ = _run(capsys, ["classify", path])
    assert code == EXIT_OK
    golden = Path(__file__).parent / "golden" / f"classify_ba_{name}.json"
    assert out == golden.read_text(encoding="utf-8")


# golden file stem -> (problem, command line without the file and --format)
CSV_GOLDEN = {
    "classify_ba_distinct": (CLASSIFY_BA_GOLDEN["distinct"], ["classify"]),
    "diagnose_oscillator_sweep-0.9_0.9_3_E7.25": (
        dict(HO_PROBLEM, order=80, n_max=40),
        ["diagnose", "--param-value", "7.25", "--sweep-x0=-0.9:0.9:3"],
    ),
    "solve_oscillator_shift0.37": (SOLVE_GOLDEN["oscillator"], ["solve"]),
}


# CSV bytes, recorded before CSV was read off the JSON document: key/value
# rows of a nested record, a sweep's x0 column, and a solve table
@pytest.mark.parametrize("name", sorted(CSV_GOLDEN))
def test_csv_golden_output(tmp_path, capsys, name):
    problem, (command, *rest) = CSV_GOLDEN[name]
    path = _write(tmp_path, "problem.json", problem)
    code, out, _ = _run(capsys, [command, path, *rest, "--format", "csv"])
    assert code == EXIT_OK
    golden = Path(__file__).parent / "golden" / f"{name}.csv"
    assert out == golden.read_text(encoding="utf-8")


# roots 1 +- i sqrt(2) and (1 +- i sqrt(3)) / 2 share their modulus: there is
# no minimal solution, which is an answer, not a numeric failure
@pytest.mark.parametrize("p, q", [(2.0, -3.0), (1.0, -1.0)])
def test_classify_without_minimal_solution_exits_ok(tmp_path, capsys, p, q):
    block = {"pvals": [p] * 60, "qvals": [q] * 60}
    path = _write(tmp_path, "pair.json", dict(HO_PROBLEM, classify=block))
    code, out, err = _run(capsys, ["classify", path])
    assert code == EXIT_OK, err
    outputs = json.loads(out)["outputs"]
    assert outputs["classification"]["minimal_exists"] is False
    assert outputs["pincherle"] is None
    assert "pincherle" not in outputs["classification"]


# q = 0 at the top blocks a backward pass started there, but Miller's
# algorithm settles at lower depths; the classification and the Pincherle
# block report the same minimal ratio
def test_classify_zero_top_q_keeps_minimal_ratio(tmp_path, capsys):
    block = {"pvals": [3.0] * 60, "qvals": [4.0] * 59 + [0.0]}
    path = _write(tmp_path, "zero_q.json", dict(HO_PROBLEM, classify=block))
    code, out, err = _run(capsys, ["classify", path])
    assert code == EXIT_OK, err
    outputs = json.loads(out)["outputs"]
    cls = outputs["classification"]
    assert cls["minimal_exists"] is True
    assert cls["numeric_minimal_ratio"] == pytest.approx(-1.0, abs=1e-12)
    assert outputs["pincherle"]["backward_ratio"] == cls["numeric_minimal_ratio"]


_COEFFS = st.one_of(st.just(0.0), st.floats(-5.0, 5.0))


# a raw recurrence is classified or fails numerically (a zero p), and the
# Pincherle block is present exactly when a minimal solution was found
@given(
    pvals=st.lists(_COEFFS, min_size=40, max_size=40),
    qvals=st.lists(_COEFFS, min_size=40, max_size=40),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_classify_pincherle_present_iff_minimal_exists(tmp_path, capsys, pvals, qvals):
    block = {"pvals": pvals, "qvals": qvals}
    path = _write(tmp_path, "raw.json", dict(HO_PROBLEM, classify=block))
    code, out, _ = _run(capsys, ["classify", path])
    assert code in (EXIT_OK, EXIT_NUMERIC)
    if code == EXIT_OK:
        outputs = json.loads(out)["outputs"]
        minimal = outputs["classification"]["minimal_exists"]
        assert (outputs["pincherle"] is None) == (not minimal)


def test_classify_from_ladder_needs_param_value(const_file, capsys):
    code, _, err = _run(capsys, ["classify", const_file])
    assert code == EXIT_INPUT
    assert "param-value" in err


def test_classify_from_ladder_runs(const_file, capsys):
    code, out, _ = _run(capsys, ["classify", const_file, "--param-value", "0"])
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["outputs"]["classification"]["case_label"] == "1a"


# the oscillator at x0 = 0 has every p_n = 0: L(x0) = 0, the symmetric
# centre, where the fraction has no value
def test_classify_at_symmetric_centre_exits_numeric(ho_file, capsys):
    code, out, err = _run(capsys, ["classify", ho_file, "--param-value", "7.25"])
    assert (code, out) == (EXIT_NUMERIC, "")
    assert "ZeroP" in err
    assert "symmetric centre" in err


# a malformed declaration is an input error before any numeric failure:
# neither the symmetric centre's ZeroP, nor a ladder too short to classify,
# nor a ladder that overflows comes first
@pytest.mark.parametrize(
    "problem, argv_tail",
    [
        ({}, ["--param-value", "7.25"]),
        ({}, ["--param-value", "7.25", "--x0", "0.3", "--n", "20"]),
        (
            {"lambda0": "2 + x", "s0": "x - E", "order": 40, "n_max": 12},
            ["--param-value", "1", "--x0=1.000000001"],
        ),
    ],
    ids=["centre", "short", "ladder-overflow"],
)
def test_classify_malformed_declaration_exits_input_first(
    tmp_path, capsys, problem, argv_tail
):
    block = {"declared_power_law": {"sigma": 1, "tau": 0}}
    path = _write(tmp_path, "declared.json", dict(HO_PROBLEM, **problem, classify=block))
    code, out, err = _run(capsys, ["classify", path, *argv_tail])
    assert (code, out) == (EXIT_INPUT, "")
    assert "both scales" in err


def test_classify_short_sequences_exit_numeric(tmp_path, capsys):
    path = _write(
        tmp_path,
        "short.json",
        {
            "lambda0": "3",
            "s0": "4 + 0*E",
            "parameter": "E",
            "x0": 0.0,
            "order": 20,
            "n_max": 10,
            "classify": {"pvals": [3.0] * 10, "qvals": [4.0] * 10},
        },
    )
    code, _, err = _run(capsys, ["classify", path])
    assert code == EXIT_NUMERIC
    assert "numeric failure" in err
    assert "InsufficientData" in err


# [DERIVED] ladder at E=3, x0=1 terminates at level 1 with C = -1 twice
def test_diagnose_termination_table(tmp_path, capsys):
    path = _write(
        tmp_path,
        "ho1.json",
        {
            "lambda0": "2*x",
            "s0": "1 - E",
            "parameter": "E",
            "x0": 1.0,
            "order": 40,
            "n_max": 20,
        },
    )
    code, out, _ = _run(capsys, ["diagnose", path, "--param-value", "3"])
    assert code == EXIT_OK
    record = json.loads(out)
    outputs = record["outputs"]
    assert outputs["termination_level"] == 1
    assert outputs["determinant_ok"] is True
    table = outputs["table"]
    assert [row["n"] for row in table] == [0, 1]
    assert table[0]["p"] == 2.0
    assert table[0]["q"] == -2.0
    assert table[0]["C"] == -1.0
    assert table[0]["dC"] == "nan"
    assert table[1]["C"] == -1.0
    assert table[1]["dC"] == 0.0
    joined = " ".join(record["warnings"])
    assert "ladder stopped at level 1" in joined
    assert "unit-form diagnostics skipped" in joined


def test_diagnose_center_on_zero_keeps_honest_nans(tmp_path, capsys):
    path = _write(
        tmp_path,
        "ho0.json",
        {
            "lambda0": "2*x",
            "s0": "1 - E",
            "parameter": "E",
            "x0": 0.0,
            "order": 40,
            "n_max": 20,
        },
    )
    code, out, _ = _run(capsys, ["diagnose", path, "--param-value", "3"])
    assert code == EXIT_OK
    record = json.loads(out)
    # p_0(0) = 0 leaves the approximants undefined rather than invented
    assert record["outputs"]["table"][0]["C"] == "nan"


# C[0] and C[1] are both -inf beyond double range; their difference is nan,
# and taking it adds no floating-point warning to the record
def test_diagnose_infinite_approximants_difference_is_quiet(tmp_path, capsys):
    path = _write(
        tmp_path,
        "inf_c.json",
        dict(
            HO_PROBLEM,
            lambda0="1e-200 + 1e+300*x",
            s0="1e-200 + -1e+200*x - E",
            x0=1e-310,
            order=20,
            n_max=12,
        ),
    )
    code, out, _ = _run(capsys, ["diagnose", path, "--param-value", "1e300"])
    assert code == EXIT_OK
    record = json.loads(out)
    table = record["outputs"]["table"]
    assert [(row["C"], row["dC"]) for row in table] == [("-inf", "nan"), ("-inf", "nan")]
    assert not any(w.startswith("RuntimeWarning") for w in record["warnings"])


def test_diagnose_constants_convergence_block(const_file, capsys):
    code, out, _ = _run(capsys, ["diagnose", const_file, "--param-value", "0"])
    assert code == EXIT_OK
    record = json.loads(out)
    outputs = record["outputs"]
    assert outputs["termination_level"] is None
    assert outputs["determinant_ok"] is True
    assert len(outputs["table"]) == 61
    # unit form alternates 3, 3/4, so p >= 1 fails and the bound is skipped
    assert outputs["convergence"] is not None
    assert outputs["bound_violations"] is None


def test_diagnose_csv_table(const_file, capsys):
    code, out, _ = _run(
        capsys, ["diagnose", const_file, "--param-value", "0", "--format", "csv"]
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "n,p,q,C,dC"
    assert len(lines) == 62
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 3.0
    assert float(first[2]) == 4.0


def test_solve_csv_rows(ho_file, capsys):
    code, out, _ = _run(capsys, ["solve", ho_file, "--format", "csv"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "value,residual,n_used"
    assert len(lines) == 5


def test_classify_csv_is_sorted_key_value(const_seq_file, capsys):
    code, out, _ = _run(capsys, ["classify", const_seq_file, "--format", "csv"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "key,value"
    keys = [line.split(",", 1)[0] for line in lines[1:]]
    assert keys == sorted(keys)
    assert any(k == "classification.case_label" for k in keys)


def test_sweep_repeats_runs_over_centers(tmp_path, capsys):
    path = _write(
        tmp_path,
        "sweep.json",
        {
            "lambda0": "2*x",
            "s0": "1 - E",
            "parameter": "E",
            "x0": 0.0,
            "order": 40,
            "n_max": 20,
            "search": {"e_min": 0.0, "e_max": 4.0, "grid": 21, "tol": 1e-9},
        },
    )
    code, out, _ = _run(capsys, ["solve", path, "--sweep-x0", "0.2:0.4:3"])
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["sweep_parameter"] == "x0"
    assert len(record["runs"]) == 3
    centers = [run["inputs"]["x0"] for run in record["runs"]]
    np.testing.assert_allclose(centers, [0.2, 0.3, 0.4])
    for run in record["runs"]:
        values = [r["value"] for r in run["outputs"]["eigenvalues"]]
        np.testing.assert_allclose(values, [1.0, 3.0], atol=1e-7)


def test_sweep_csv_gains_x0_column(tmp_path, capsys):
    path = _write(
        tmp_path,
        "sweep2.json",
        {
            "lambda0": "3",
            "s0": "4 + 0*E",
            "parameter": "E",
            "x0": 0.0,
            "order": 20,
            "n_max": 8,
        },
    )
    code, out, _ = _run(
        capsys,
        [
            "diagnose",
            path,
            "--param-value",
            "0",
            "--sweep-x0",
            "0:1:2",
            "--format",
            "csv",
        ],
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "x0,n,p,q,C,dC"
    assert len(lines) == 1 + 2 * 9


def test_exit_input_on_malformed_expression(tmp_path, capsys):
    path = _write(
        tmp_path,
        "bad_expr.json",
        {
            "lambda0": "2*^x",
            "s0": "1 - E",
            "parameter": "E",
            "x0": 0.0,
            "order": 20,
            "n_max": 10,
        },
    )
    code, _, err = _run(capsys, ["diagnose", path, "--param-value", "1"])
    assert code == EXIT_INPUT
    assert "position" in err


# expressions too long or too deeply nested for the recursive parser and
# evaluator are input errors, not RecursionError tracebacks, whether the
# deep path is parameter-free (evaluated when bound) or leads to the
# parameter (evaluated again at every grid point)
@pytest.mark.parametrize(
    "field, text",
    [
        ("lambda0", "+".join(["x"] * 2001)),
        ("lambda0", "(" * 400 + "x" + ")" * 400),
        ("lambda0", "-" * 3000 + "x"),
        ("s0", "+".join(["E"] * 2001)),
    ],
    ids=["flat-sum", "nested-parens", "unary-minuses", "param-sum"],
)
def test_exit_input_on_deeply_nested_expression(tmp_path, capsys, field, text):
    path = _write(tmp_path, "deep.json", dict(HO_PROBLEM, **{field: text}))
    code, _, err = _run(capsys, ["solve", path])
    assert code == EXIT_INPUT
    assert "nested too deeply" in err


# a valid file whose ladder overflows double range is a numeric failure
def test_exit_numeric_on_ladder_overflow(tmp_path, capsys):
    path = _write(
        tmp_path,
        "overflow.json",
        dict(HO_PROBLEM, lambda0="1e200*x", x0=0.5, order=20, n_max=10),
    )
    code, _, err = _run(capsys, ["solve", path])
    assert code == EXIT_NUMERIC
    assert "Overflow" in err


# finite ladder values whose termination quantity overflows: exit 3, not a
# degenerate grid with numpy warnings
def test_exit_numeric_on_delta_overflow(tmp_path, capsys):
    path = _write(
        tmp_path,
        "delta_overflow.json",
        dict(HO_PROBLEM, lambda0="1e20", order=12, n_max=8),
    )
    code, out, err = _run(capsys, ["solve", path, "--grid", "11"])
    assert (code, out) == (EXIT_NUMERIC, "")
    assert "Overflow" in err


# a deep ladder past double range exits 3 through the derivative recurrence
def test_exit_numeric_on_deep_ladder_overflow(tmp_path, capsys):
    path = _write(
        tmp_path,
        "deep_overflow.json",
        dict(HO_PROBLEM, lambda0="1/(10 + x)", s0="-1 - E", order=202, n_max=200),
    )
    code, out, err = _run(capsys, ["solve", path, "--grid", "11"])
    assert (code, out) == (EXIT_NUMERIC, "")
    assert "Overflow" in err


# a ladder that stops on a pole has not terminated, whatever the size of
# its coefficients
def test_diagnose_quartic_pole_has_no_termination_level(tmp_path, capsys):
    path = _write(
        tmp_path,
        "quartic.json",
        dict(HO_PROBLEM, lambda0="6*x", s0="x^4 - 9*x^2 + 3 - E", order=80, n_max=40),
    )
    code, out, _ = _run(capsys, ["diagnose", path, "--param-value=1.0", "--x0=-1.5"])
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["outputs"]["termination_level"] is None
    assert "ladder stopped at level 3 (pole)" in " ".join(record["warnings"])


# S = 1 - E = -1 is not identically zero, however large L is
def test_diagnose_huge_lambda_does_not_terminate_at_level_zero(tmp_path, capsys):
    path = _write(
        tmp_path,
        "huge_lambda.json",
        dict(HO_PROBLEM, lambda0="1e200*x", x0=0.5, order=20, n_max=10),
    )
    code, out, _ = _run(capsys, ["diagnose", path, "--param-value=2"])
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["outputs"]["termination_level"] is None
    assert len(record["outputs"]["table"]) == 11


# q0(x0) = 1e-9 passes the pole test and q0'/q0 leaves double range
@pytest.mark.parametrize("command", ["diagnose", "classify"])
def test_exit_numeric_on_series_ladder_overflow(tmp_path, capsys, command):
    path = _write(
        tmp_path,
        "near_pole.json",
        dict(HO_PROBLEM, lambda0="2 + x", s0="x - E", order=40, n_max=12),
    )
    argv = [command, path, "--param-value", "1", "--x0=1.000000001"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (EXIT_NUMERIC, "")
    assert "Overflow" in err


# finite series whose sum or product leaves double range inside the ladder:
# a numeric failure, not an input error
@pytest.mark.parametrize("command", ["diagnose", "classify"])
def test_exit_numeric_on_series_arithmetic_overflow(tmp_path, capsys, command):
    path = _write(
        tmp_path,
        "huge_product.json",
        dict(HO_PROBLEM, lambda0="1e300*x", s0="x - E", x0=0.5, order=20, n_max=10),
    )
    argv = [command, path, "--param-value", "0.4999999999"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (EXIT_NUMERIC, "")
    assert "Overflow" in err


# [DERIVED] at E = 2k+1 the level-k q vanishes identically; with n_max = k
# that is the last level, and the full table is not partial
@pytest.mark.parametrize("k", [1, 2, 3])
def test_diagnose_termination_on_last_level(tmp_path, capsys, k):
    path = _write(tmp_path, "ho.json", dict(HO_PROBLEM, x0=1.0, n_max=k))
    code, out, _ = _run(capsys, ["diagnose", path, f"--param-value={2 * k + 1}"])
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["outputs"]["termination_level"] == k
    assert len(record["outputs"]["table"]) == k + 1
    assert not any("table is partial" in w for w in record["warnings"])


# [DERIVED] constant L = 3 and S = 1/4 keep p_n = 3 and q_n = 1/4 on every
# level; the unit form alternates 3, 12 over 11 levels, all >= 1, so the
# bound check runs, and its sum 6 * 3 + 5 * 12 = 78 passes the threshold 50
def test_diagnose_unit_form_at_least_one_runs_bound_check(tmp_path, capsys):
    problem = dict(HO_PROBLEM, lambda0="3", s0="0.25 + 0*E", order=20, n_max=10)
    path = _write(tmp_path, "unit.json", problem)
    code, out, err = _run(capsys, ["diagnose", path, "--param-value", "1"])
    assert code == EXIT_OK, err
    record = json.loads(out)
    assert record["warnings"] == []
    outputs = record["outputs"]
    assert outputs["convergence"]["verdict"] == "Converges"
    assert outputs["convergence"]["partial_sum"] == 78.0
    assert outputs["bound_violations"] == 0


# the numeric probes read the fraction's own runs and take no seed
@pytest.mark.parametrize("command", ["solve", "diagnose", "classify"])
def test_no_subcommand_accepts_seed(const_seq_file, capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, const_seq_file, "--seed", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


# each subcommand registers only the flags it reads: solve scans, so it takes
# no parameter value, and binds at n_max + 2, so no order; diagnose and
# classify fix one, so no grid or tolerance
@pytest.mark.parametrize(
    "command, flag",
    [
        ("solve", "--param-value"),
        ("solve", "--order"),
        ("diagnose", "--grid"),
        ("diagnose", "--tol"),
        ("classify", "--grid"),
        ("classify", "--tol"),
    ],
)
def test_subcommand_rejects_flags_it_does_not_read(const_seq_file, capsys, command, flag):
    with pytest.raises(SystemExit) as info:
        main([command, const_seq_file, flag, "1"])
    assert info.value.code == EXIT_INPUT
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


# classify starts no random generator, so a first classify in a fresh
# interpreter does not pay for importing numpy.random
def test_classify_leaves_numpy_random_unimported(const_seq_file):
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        f"import contextlib, io, sys; sys.path.insert(0, {str(src)!r})\n"
        "from aimcf.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['classify', {const_seq_file!r}])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(EXIT_OK), "False"]


def test_exit_input_on_bad_order_budget(tmp_path, ho_file, capsys):
    path = _write(
        tmp_path,
        "bad_order.json",
        {
            "lambda0": "2*x",
            "s0": "1 - E",
            "parameter": "E",
            "x0": 0.0,
            "order": 10,
            "n_max": 10,
        },
    )
    code, _, err = _run(capsys, ["diagnose", path, "--param-value", "1"])
    assert code == EXIT_INPUT
    assert "order" in err
    # solve binds at n_max + 2, but the file's order is its depth budget, the
    # one bound on --n, and no flag lifts it
    code, _, err = _run(capsys, ["solve", ho_file, "--n", "70"])
    assert code == EXIT_INPUT
    assert "order (60) must be >= n_max + 2 (72)" in err


def test_exit_input_on_missing_search(const_file, capsys):
    code, _, err = _run(capsys, ["solve", const_file])
    assert code == EXIT_INPUT
    assert "search" in err


def test_exit_input_on_bad_sweep(ho_file, capsys):
    code, _, err = _run(capsys, ["solve", ho_file, "--sweep-x0", "1:2"])
    assert code == EXIT_INPUT
    assert "sweep" in err


# a size whose float64 array numpy cannot describe (8 * size > sys.maxsize)
# is an input error, raised before anything is allocated; solve never
# expands a series, but its spec holds the order too
@pytest.mark.parametrize("command", ["solve", "diagnose", "classify"])
@pytest.mark.parametrize(
    "change, argv_tail, name",
    [
        ({"order": 10**30}, [], "order"),
        ({"order": 2**62}, [], "order"),
        (None, None, "order"),  # _order(command, 2**62)
        ({}, ["--sweep-x0", f"0:1:{10**30}"], "--sweep-x0 steps"),
    ],
    ids=["order-1e30", "order-2^62", "order-option", "sweep-steps"],
)
def test_exit_input_on_size_past_numpy_limit(
    tmp_path, capsys, command, change, argv_tail, name
):
    if change is None:
        change, argv_tail = _order(command, 2**62)
    path = _write(tmp_path, "huge.json", dict(HO_PROBLEM, **change))
    code, out, err = _run(capsys, [command, path, *_param(command, "2"), *argv_tail])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: {name} is too large for a numpy array\n"


@pytest.mark.parametrize(
    "search, argv_tail",
    [
        (dict(HO_PROBLEM["search"], grid=10**30), []),
        (HO_PROBLEM["search"], ["--grid", str(10**30)]),
    ],
    ids=["file", "option"],
)
def test_exit_input_on_grid_past_numpy_limit(tmp_path, capsys, search, argv_tail):
    path = _write(tmp_path, "huge_grid.json", dict(HO_PROBLEM, search=search))
    code, out, err = _run(capsys, ["solve", path, *argv_tail])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: grid_points is too large for a numpy array\n"


@pytest.mark.parametrize(
    "field, value",
    [
        ("x0", "abc"),
        ("x0", True),
        ("order", 60.7),
        ("order", True),
        ("n_max", "30"),
        ("n_max", False),
        ("e_min", "zz"),
        ("e_min", True),
        ("e_max", "zz"),
        ("e_max", False),
        ("grid", 41.5),
        ("grid", True),
        ("tol", "1e-10"),
        ("tol", True),
        # json.load reads NaN and Infinity, and an integer literal may be
        # too long for a float
        ("x0", math.nan),
        ("x0", math.inf),
        pytest.param("x0", 10**400, id="x0-huge"),
        ("e_min", -math.inf),
        ("e_max", math.nan),
        pytest.param("e_max", 10**400, id="e_max-huge"),
    ],
)
def test_exit_input_on_malformed_numeric_field(tmp_path, capsys, field, value):
    payload = dict(HO_PROBLEM, search=dict(HO_PROBLEM["search"]))
    block = payload if field in payload else payload["search"]
    block[field] = value
    path = _write(tmp_path, "malformed.json", payload)
    code, _, err = _run(capsys, ["solve", path])
    assert code == EXIT_INPUT
    assert f"'{field}'" in err


# a non-finite centre from the command line is an input error on every
# command, as "x0": NaN in the problem file is; classify on raw sequences
# never expands a series, and the spec checks x0 where it is built
@pytest.mark.parametrize("command", ["solve", "diagnose", "classify"])
@pytest.mark.parametrize(
    "argv_tail", [["--x0", "nan"], ["--x0", "inf"], ["--x0=-inf"], ["--sweep-x0", "nan:1:2"]]
)
def test_exit_input_on_nonfinite_x0_option(tmp_path, capsys, command, argv_tail):
    payload = dict(HO_PROBLEM, classify={"pvals": [3.0] * 60, "qvals": [4.0] * 60})
    path = _write(tmp_path, "raw.json", payload)
    code, out, err = _run(capsys, [command, path, *_param(command, "1"), *argv_tail])
    assert code == EXIT_INPUT
    assert out == ""
    assert "series center must be finite" in err


# a non-finite tol, from the command line or from the problem file ("tol":
# NaN or Infinity in the JSON), is an input error
@pytest.mark.parametrize(
    "argv_tail, search",
    [
        (["--tol", "nan"], HO_PROBLEM["search"]),
        ([], dict(HO_PROBLEM["search"], tol=float("nan"))),
        (["--tol", "inf"], HO_PROBLEM["search"]),
        ([], dict(HO_PROBLEM["search"], tol=float("inf"))),
    ],
)
def test_exit_input_on_nan_tol(tmp_path, capsys, argv_tail, search):
    path = _write(tmp_path, "nan_tol.json", dict(HO_PROBLEM, search=search))
    code, _, err = _run(capsys, ["solve", path, *argv_tail])
    assert code == EXIT_INPUT
    assert "tol" in err


# [DERIVED] the oscillator's eigenvalues are the odd integers, none in
# [1.5, 2.5]: an empty result carries a warning
def test_solve_warns_when_no_eigenvalue_is_found(tmp_path, capsys):
    search = dict(HO_PROBLEM["search"], e_min=1.5, e_max=2.5, grid=11)
    path = _write(tmp_path, "gap.json", dict(HO_PROBLEM, order=80, n_max=40, search=search))
    code, out, err = _run(capsys, ["solve", path])
    assert code == EXIT_OK, err
    record = json.loads(out)
    assert record["outputs"]["count"] == 0
    assert record["warnings"] == ["no eigenvalues found in [1.5, 2.5] at depth 40"]


# a grid of one point holds no cell to scan
def test_solve_rejects_single_point_grid(ho_file, capsys):
    code, out, err = _run(capsys, ["solve", ho_file, "--grid", "1"])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: grid_points must be >= 2\n"


# the scan never reads the spec's order, so the smallest order the spec
# admits solves, with the roots of the deeper file
def test_solve_at_minimal_order(ho_file, tmp_path, capsys):
    minimal = dict(HO_PROBLEM, order=HO_PROBLEM["n_max"] + 2)
    path = _write(tmp_path, "min_order.json", minimal)
    code, out, _ = _run(capsys, ["solve", path])
    assert code == EXIT_OK
    _, deep, _ = _run(capsys, ["solve", ho_file])
    assert json.loads(out)["outputs"] == json.loads(deep)["outputs"]


@pytest.mark.parametrize(
    "block",
    [
        {"declared_power_law": 5},
        {"declared_power_law": {"sigma": "a", "tau": 0}},
        {"declared_power_law": {"a": True, "sigma": 1, "b": -1, "tau": 0}},
        {"pvals": ["abc"] + [1.0] * 39, "qvals": [1.0] * 40},
        {"pvals": 3, "qvals": [1.0] * 40},
        {"qvals": [1.0] * 40},
        {"declared_ba_coeffs": {"a_coeffs": "xy", "b_coeffs": [1.0]}},
        {"declared_ba_coeffs": {"a_coeffs": [0.0], "b_coeffs": [1.0], "k_max": 2.5}},
        [],
        # non-finite reals, which json.load reads
        {"pvals": [math.nan] + [3.0] * 59, "qvals": [4.0] * 60},
        {"pvals": [3.0] * 60, "qvals": [4.0] * 59 + [math.inf]},
        {"declared_power_law": {"a": math.nan, "sigma": 1, "b": -1, "tau": 0}},
        {"declared_power_law": {"a": 2, "sigma": 1, "b": -1, "tau": -math.inf}},
        {"declared_ba_coeffs": {"a_coeffs": [math.inf], "b_coeffs": [1.0]}},
        # a power law needs both scales, each nonzero
        {**_CYLINDER, "declared_power_law": {"sigma": 1, "tau": 0}},
        {**_CYLINDER, "declared_power_law": {"a": 2, "sigma": 1, "b": 0, "tau": 0}},
        # one declaration, not both
        {
            **_CYLINDER,
            "declared_power_law": {"a": 2, "sigma": 1, "b": -1, "tau": 0},
            "declared_ba_coeffs": {"a_coeffs": [-3.0], "b_coeffs": [-4.0]},
        },
        # the 1/n table costs about k_max**4 steps, so k_max is bounded
        {**_CYLINDER, "declared_ba_coeffs": {"a_coeffs": [-3.0], "b_coeffs": [-4.0], "k_max": 10**6}},
        # raw sequences must not be empty
        {"pvals": [], "qvals": []},
    ],
)
def test_exit_input_on_malformed_classify_block(tmp_path, capsys, block):
    path = _write(tmp_path, "classify.json", dict(HO_PROBLEM, classify=block))
    code, _, err = _run(capsys, ["classify", path, "--param-value", "3"])
    assert code == EXIT_INPUT
    assert err.startswith("error:")


# the declaration is checked at load, so a semantically malformed one exits
# 2 under every command, as a value of the wrong type there does
@pytest.mark.parametrize("command", ["solve", "diagnose", "classify"])
@pytest.mark.parametrize(
    "block",
    [
        {"declared_power_law": {"sigma": 1, "tau": 0}},
        {"declared_ba_coeffs": {"a_coeffs": [-3.0], "b_coeffs": [-4.0], "k_max": 10**6}},
    ],
    ids=["no-scales", "k_max-10**6"],
)
def test_malformed_declaration_exits_input_under_every_command(tmp_path, capsys, command, block):
    path = _write(tmp_path, "declared.json", dict(HO_PROBLEM, classify=dict(_CYLINDER, **block)))
    code, out, err = _run(capsys, [command, path, *_param(command, "3")])
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: declared") or err.startswith("error: k_max")


# a numeric failure in building a declaration stays with classify: b_0 = 0
# is ZeroB0 there, and solve never builds the declaration
@pytest.mark.parametrize("command, expected", [("classify", EXIT_NUMERIC), ("solve", EXIT_OK)])
def test_zero_b0_declaration_fails_only_classify(tmp_path, capsys, command, expected):
    block = dict(_CYLINDER, declared_ba_coeffs={"a_coeffs": [-3.0], "b_coeffs": [0.0]})
    path = _write(tmp_path, "zero_b0.json", dict(HO_PROBLEM, classify=block))
    code, _, err = _run(capsys, [command, path])
    assert code == expected
    assert ("ZeroB0" in err) == (command == "classify")


# a bad element of a raw sequence is named by its list and index, with its
# repr, in the whole message
@pytest.mark.parametrize(
    "block, message",
    [
        (
            {"pvals": [math.nan] + [3.0] * 59, "qvals": [4.0] * 60},
            "'pvals[0]' must be finite, got nan",
        ),
        (
            {"pvals": ["abc"] + [1.0] * 39, "qvals": [1.0] * 40},
            "'pvals[0]' must be a real number, got 'abc'",
        ),
        (
            {"pvals": [3.0] * 60, "qvals": [4.0] * 59 + [math.inf]},
            "'qvals[59]' must be finite, got inf",
        ),
        (
            {"declared_ba_coeffs": {"a_coeffs": [0.5, True], "b_coeffs": [1.0]}},
            "'a_coeffs[1]' must be a real number, got True",
        ),
    ],
)
def test_malformed_raw_sequence_message(tmp_path, capsys, block, message):
    path = _write(tmp_path, "classify.json", dict(HO_PROBLEM, classify=block))
    code, out, err = _run(capsys, ["classify", path, "--param-value", "3"])
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"error: {message}\n"


def test_exit_input_on_missing_file(capsys):
    code, _, err = _run(capsys, ["solve", "/nonexistent/problem.json"])
    assert code == EXIT_INPUT
    assert "cannot read" in err


def test_exit_input_on_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = _run(capsys, ["solve", str(path)])
    assert code == EXIT_INPUT
    assert "not valid JSON" in err


# json.load raises a plain ValueError for an integer literal past Python's
# digit limit
def test_exit_input_on_overlong_integer_literal(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"x0": 1' + "0" * 5000 + "}", encoding="utf-8")
    code, _, err = _run(capsys, ["solve", str(path)])
    assert code == EXIT_INPUT
    assert "not valid JSON" in err


def test_exit_input_on_missing_keys(tmp_path, capsys):
    path = _write(tmp_path, "partial.json", {"lambda0": "x"})
    code, _, err = _run(capsys, ["solve", str(path)])
    assert code == EXIT_INPUT
    assert "missing required key" in err


# a parameter named x would be read as the variable everywhere, so a search
# would run with no parameter and find nothing; a name that is no identifier
# cannot be read at all.  Both are input errors
@pytest.mark.parametrize(
    "name, message", [("x", "'x' must be an identifier other"), ("1E", "'1E' must be")]
)
def test_exit_input_on_unusable_parameter_name(tmp_path, capsys, name, message):
    path = _write(tmp_path, "param.json", dict(HO_PROBLEM, s0="1 - x", parameter=name))
    code, out, err = _run(capsys, ["solve", path])
    assert (code, out) == (EXIT_INPUT, "")
    assert message in err


def test_flag_overrides_problem_file(tmp_path, capsys):
    path = _write(
        tmp_path,
        "override.json",
        {
            "lambda0": "2*x",
            "s0": "1 - E",
            "parameter": "E",
            "x0": 1.0,
            "order": 40,
            "n_max": 20,
        },
    )
    code, out, _ = _run(
        capsys, ["diagnose", path, "--param-value", "3", "--x0", "2.0"]
    )
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["inputs"]["x0"] == 2.0
    # q0 at the overridden center: 1 - 3 = -2, p0 = 2*2 = 4
    assert record["outputs"]["table"][0]["p"] == 4.0


# the parser is built once and shared by every call; no option value of one
# call reaches the next, whichever subcommands and options they mix
def test_repeated_calls_share_no_option_values(ho_file, const_seq_file, capsys):
    assert build_parser() is build_parser()
    runs = [
        ["solve", ho_file],
        ["diagnose", ho_file, "--param-value", "3"],
        ["solve", ho_file, "--grid", "7", "--n", "20", "--tol", "1e-6"],
        ["diagnose", ho_file, "--param-value", "5", "--x0", "0.5", "--format", "csv"],
        ["classify", const_seq_file, "--order", "65"],
        ["diagnose", ho_file, "--param-value", "3"],
        ["solve", ho_file],
    ]
    outputs = []
    for argv in runs:
        code, out, _ = _run(capsys, argv)
        assert code == EXIT_OK, argv
        outputs.append(out)
    assert outputs[-1] == outputs[0]
    assert outputs[-2] == outputs[1]
    first, narrow = json.loads(outputs[0]), json.loads(outputs[2])
    assert narrow["outputs"]["search"]["grid"] == 7 and "seed" not in narrow
    assert first["outputs"]["search"] == HO_PROBLEM["search"]
    assert first["inputs"]["n_max"] == HO_PROBLEM["n_max"] and "seed" not in first
    assert json.loads(outputs[1])["inputs"]["x0"] == HO_PROBLEM["x0"]


# a search range that is not finite, or whose width overflows, exits as an
# input error before any grid is built
@pytest.mark.parametrize("e_min, e_max", [(0.0, math.inf), (-1e308, 1e308)])
def test_exit_input_on_nonfinite_search_range(tmp_path, capsys, e_min, e_max):
    search = dict(HO_PROBLEM["search"], e_min=e_min, e_max=e_max)
    path = _write(tmp_path, "range.json", dict(HO_PROBLEM, search=search))
    code, out, err = _run(capsys, ["solve", path])
    assert code == EXIT_INPUT
    assert out == ""
    assert "must be finite" in err


# small valid problem files, one per declared-structure kind, so every mutated
# example stays cheap: short ladders, short grids, 40-level sequences
_SMALL = dict(
    HO_PROBLEM,
    order=14,
    n_max=8,
    search={"e_min": 0.1, "e_max": 8.1, "grid": 11, "tol": 1e-8},
)
_SEQUENCES = {
    "pvals": [2.0 * (n + 1) for n in range(40)],
    "qvals": [-1.0] * 40,
}
_BASES = (
    dict(
        _SMALL,
        classify=dict(
            _SEQUENCES,
            declared_power_law={"a": 2.0, "sigma": 1, "b": -1, "tau": 0},
        ),
    ),
    dict(
        _SMALL,
        classify=dict(
            _SEQUENCES,
            declared_ba_coeffs={"a_coeffs": [-2.0], "b_coeffs": [1.0], "k_max": 3},
        ),
    ),
)
_DELETE = object()


def _paths(node, prefix=()):
    """Every key path of a problem file, list elements represented by index 0."""
    items = node.items() if isinstance(node, dict) else [(0, node[0])] if node else []
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


_MUTATIONS = [(base, path) for base in _BASES for path in _paths(base)]
# integers stay small, so no order, n_max, grid or k_max asks for a huge
# series or a long loop; other numbers arrive as floats, which those reject
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308, -1e308, 5e-324]),
    st.text(alphabet="xE0123456789.+-*/^() ", max_size=6),
)
_VALUES = st.one_of(
    _SCALARS,
    st.just(_DELETE),
    st.lists(_SCALARS, max_size=60),
    st.dictionaries(st.sampled_from(["a", "sigma", "tau", "x"]), _SCALARS, max_size=3),
)


@st.composite
def _mutated_problem(draw):
    base, path = draw(st.sampled_from(_MUTATIONS))
    problem = json.loads(json.dumps(base))
    parent = problem
    for key in path[:-1]:
        parent = parent[key]
    value = draw(_VALUES)
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return problem


def _power_law(**changes):
    base = _BASES[0]
    block = dict(base["classify"])
    block["declared_power_law"] = dict(block["declared_power_law"], **changes)
    return dict(base, classify=block)


# the exit codes 0 (ok), 2 (input) and 3 (numeric) hold for every problem
# file, and no exception escapes main; the examples once escaped as a
# ZeroDivisionError (a = 0) or an OverflowError (huge exponents)
@example(problem=_power_law(a=0.0), command="classify")
@example(problem=_power_law(sigma=1e308), command="classify")
@example(problem=_power_law(tau=-1e36), command="classify")
@given(
    problem=_mutated_problem(),
    command=st.sampled_from(["solve", "diagnose", "classify"]),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_exit_code_for_any_single_field_mutation(tmp_path, capsys, problem, command):
    path = _write(tmp_path, "mutated.json", problem)
    code, _, _ = _run(capsys, [command, path, *_param(command, "3")])
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_NUMERIC)


class _Tag(enum.Enum):
    RED = "red"


@dataclasses.dataclass
class _Inner:
    x: float
    tag: _Tag


@dataclasses.dataclass
class _Outer:
    inner: _Inner
    values: tuple


class _InnerRecord(NamedTuple):
    x: float
    tag: _Tag


class _OuterRecord(NamedTuple):
    inner: _InnerRecord
    values: tuple


NAN, INF = math.nan, math.inf
# object -> the JSON value it is written as, or TypeError if it is refused
JSONABLE_TABLE = {
    "nan": (NAN, "nan"),
    "inf": (INF, "inf"),
    "-inf": (-INF, "-inf"),
    "-0.0": (-0.0, -0.0),
    "float": (2.5, 2.5),
    "np.float64 nan": (np.float64(NAN), "nan"),
    "np.float64 inf": (np.float64(INF), "inf"),
    "np.float64 -inf": (np.float64(-INF), "-inf"),
    "np.float64 -0.0": (np.float64(-0.0), -0.0),
    "np.int64": (np.int64(-7), -7),
    "np.bool_": (np.bool_(True), True),
    "bool": (False, False),
    "int": (3, 3),
    "None": (None, None),
    "str": ("nan", "nan"),
    "enum": (_Tag.RED, "red"),
    "complex": (complex(NAN, -1.0), {"im": -1.0, "re": "nan"}),
    # no record is a dataclass, and the writer refuses one
    "dataclass": (_Outer(_Inner(-INF, _Tag.RED), (1, np.float64(0.5))), TypeError),
    "NamedTuple": (
        _OuterRecord(_InnerRecord(-INF, _Tag.RED), (1, np.float64(0.5))),
        {"inner": {"x": "-inf", "tag": "red"}, "values": [1, 0.5]},
    ),
    "tuple beside a NamedTuple": (
        (_InnerRecord(2.5, _Tag.RED), (-INF, _Tag.RED)),
        [{"x": 2.5, "tag": "red"}, ["-inf", "red"]],
    ),
    "tuple": ((True, None, NAN), [True, None, "nan"]),
    "dict": ({"1": NAN, "2": [np.int64(4)]}, {"1": "nan", "2": [4]}),
    # every record's keys are str, and the writer refuses any other key
    "dict int key": ({1: NAN}, TypeError),
    "ndarray 2-d": (np.array([[1.0, NAN], [-INF, -0.0]]), [[1.0, "nan"], ["-inf", -0.0]]),
}


# the JSON text tells 1 from 1.0, True from 1, and 0.0 from -0.0
@pytest.mark.parametrize("obj, expected", JSONABLE_TABLE.values(), ids=JSONABLE_TABLE.keys())
def test_jsonable_type_table(obj, expected):
    if expected is TypeError:
        with pytest.raises(TypeError):
            _render_json(obj)
    else:
        assert _render_json(obj) == json.dumps(expected, sort_keys=True, indent=2)


def _reference(obj):
    """The two-pass converter the JSON writer replaced, by isinstance alone:
    an object reduced to the types ``json.dumps`` writes.  Two of its rules
    are gone, as in the writer: a dataclass is left as it is (so json.dumps
    refuses it), and a dict key that is not str is refused, not passed
    through ``str``."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, complex):
        return {"im": _reference(obj.imag), "re": _reference(obj.real)}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_reference(v) for v in obj.tolist()]
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):
        return {k: _reference(v) for k, v in obj._asdict().items()}
    if isinstance(obj, (list, tuple)):
        return [_reference(v) for v in obj]
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError(f"keys must be str, got {list(obj)!r}")
        return {k: _reference(v) for k, v in obj.items()}
    if isinstance(obj, np.bool_):
        return bool(obj)
    if not isinstance(obj, (np.floating, float)):
        return obj
    obj = float(obj)
    if math.isfinite(obj):
        return obj
    if math.isnan(obj):
        return "nan"
    return "inf" if obj > 0 else "-inf"


def _reference_text(obj):
    return json.dumps(_reference(obj), sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "obj", [obj for obj, _ in JSONABLE_TABLE.values()], ids=JSONABLE_TABLE.keys()
)
def test_render_json_matches_reference_on_type_table(obj):
    try:
        expected = _reference_text(obj)
    except TypeError:
        with pytest.raises(TypeError):
            _render_json(obj)
    else:
        assert _render_json(obj) == expected


# golden file stem -> (problem, command line without the file) of the
# golden tests above
GOLDEN_COMMANDS = {
    **{f"solve_{n}": (p, ["solve"]) for n, p in SOLVE_GOLDEN.items()},
    **{f"classify_{n}": (p, ["classify"]) for n, p in CLASSIFY_GOLDEN.items()},
    **{f"classify_ba_{n}": (p, ["classify"]) for n, p in CLASSIFY_BA_GOLDEN.items()},
    **{
        f"diagnose_oscillator_x0.3_E{e}": (
            dict(HO_PROBLEM, x0=0.3, order=80, n_max=40),
            ["diagnose", f"--param-value={e}"],
        )
        for e in ("7.25", "7.0")
    },
    "diagnose_negx_x0_E0.5": (
        dict(HO_PROBLEM, lambda0="-x", order=80, n_max=40),
        ["diagnose", "--param-value=0.5"],
    ),
    "diagnose_oscillator_sweep-0.9_0.9_3_E7.25": CSV_GOLDEN[
        "diagnose_oscillator_sweep-0.9_0.9_3_E7.25"
    ],
}


# the library records of every golden command, rebuilt run by run as main
# builds them, are written as json.dumps writes the reference's reduction
@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_render_json_matches_reference_on_golden_records(tmp_path, name):
    problem, (command, *rest) = GOLDEN_COMMANDS[name]
    args = build_parser().parse_args([command, _write(tmp_path, "p.json", problem), *rest])
    raw = cli._load_problem(args.problem_file)
    centres = [args.x0] if args.sweep_x0 is None else cli._parse_sweep(args.sweep_x0)
    for x0 in centres:
        record = cli._single_record(raw, argparse.Namespace(**dict(vars(args), x0=x0)))
        assert _render_json(record) == _reference_text(record)


_AWKWARD_TEXT = st.text(
    alphabet=st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€😀')
)
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=10**40).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308, 1e16, 1.7976931348623157e308])
    | _AWKWARD_TEXT
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_AWKWARD_TEXT, kids, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(tree=_JSON_TREES)
@example(tree={"": [[], {}, [[]], {"a": {}}], 'é"\\\n\x00': [-0.0, 5e-324, 10**40]})
def test_render_json_matches_json_dumps(tree):
    assert _render_json(tree) == json.dumps(tree, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parent / "golden").glob("*.json")), ids=lambda p: p.name
)
def test_golden_files_rerender_to_their_own_bytes(path):
    text = path.read_text(encoding="utf-8")
    assert _render_json(json.loads(text)) + "\n" == text


@pytest.mark.parametrize("leaf", [{1.0}, object()], ids=["set", "object"])
def test_render_json_rejects_other_types(leaf):
    with pytest.raises(TypeError):
        _render_json({"a": [1.0, {"b": leaf}]})
