"""End-to-end command runs: JSON/CSV output, exit codes, determinism."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from aimcf.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main


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


# [DERIVED] exact spectrum 2k+1 through the full command path
def test_solve_finds_oscillator_spectrum(ho_file, capsys):
    code, out, err = _run(capsys, ["solve", ho_file])
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["command"] == "solve"
    assert record["seed"] == 0
    values = [r["value"] for r in record["outputs"]["eigenvalues"]]
    np.testing.assert_allclose(values, [1.0, 3.0, 5.0, 7.0], atol=1e-8)
    assert record["outputs"]["count"] == 4
    for r in record["outputs"]["eigenvalues"]:
        assert r["n_used"] == 30
        assert float(r["residual"]) < 1e-6


def test_json_output_is_deterministic_and_round_trips(const_seq_file, capsys):
    code1, out1, _ = _run(capsys, ["classify", const_seq_file, "--seed", "7"])
    code2, out2, _ = _run(capsys, ["classify", const_seq_file, "--seed", "7"])
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    record = json.loads(out1)
    assert record["seed"] == 7
    # canonical form: sorted keys, two-space indent, shortest float repr
    assert out1 == json.dumps(record, sort_keys=True, indent=2) + "\n"


def test_classify_constants_labels_growth_case(const_seq_file, capsys):
    code, out, _ = _run(capsys, ["classify", const_seq_file])
    assert code == EXIT_OK
    record = json.loads(out)
    cls = record["outputs"]["classification"]
    assert cls["case_label"] == "3"
    assert cls["minimal_exists"] is True
    assert cls["consistency"] is False
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


def test_classify_from_ladder_needs_param_value(const_file, capsys):
    code, _, err = _run(capsys, ["classify", const_file])
    assert code == EXIT_INPUT
    assert "param-value" in err


def test_classify_from_ladder_runs(const_file, capsys):
    code, out, _ = _run(capsys, ["classify", const_file, "--param-value", "0"])
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["outputs"]["classification"]["case_label"] == "3"


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


def test_exit_input_on_negative_seed(const_seq_file, capsys):
    code, _, err = _run(capsys, ["classify", const_seq_file, "--seed=-1"])
    assert code == EXIT_INPUT
    assert "seed" in err


def test_exit_input_on_bad_order_budget(tmp_path, capsys):
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


def test_exit_input_on_missing_search(const_file, capsys):
    code, _, err = _run(capsys, ["solve", const_file])
    assert code == EXIT_INPUT
    assert "search" in err


def test_exit_input_on_bad_sweep(ho_file, capsys):
    code, _, err = _run(capsys, ["solve", ho_file, "--sweep-x0", "1:2"])
    assert code == EXIT_INPUT
    assert "sweep" in err


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
    ],
)
def test_exit_input_on_malformed_classify_block(tmp_path, capsys, block):
    path = _write(tmp_path, "classify.json", dict(HO_PROBLEM, classify=block))
    code, _, err = _run(capsys, ["classify", path, "--param-value", "3"])
    assert code == EXIT_INPUT
    assert err.startswith("error:")


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


def test_exit_input_on_missing_keys(tmp_path, capsys):
    path = _write(tmp_path, "partial.json", {"lambda0": "x"})
    code, _, err = _run(capsys, ["solve", str(path)])
    assert code == EXIT_INPUT
    assert "missing required key" in err


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
# file and seed, and no exception escapes main; the examples once escaped as
# a ZeroDivisionError (a = 0) or an OverflowError (huge exponents)
@example(problem=_power_law(a=0.0), command="classify", seed=0)
@example(problem=_power_law(sigma=1e308), command="classify", seed=0)
@example(problem=_power_law(tau=-1e36), command="classify", seed=0)
@given(
    problem=_mutated_problem(),
    command=st.sampled_from(["solve", "diagnose", "classify"]),
    seed=st.integers(-3, 3),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_exit_code_for_any_single_field_mutation(
    tmp_path, capsys, problem, command, seed
):
    path = _write(tmp_path, "mutated.json", problem)
    code, _, _ = _run(capsys, [command, path, "--param-value", "3", f"--seed={seed}"])
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_NUMERIC)
