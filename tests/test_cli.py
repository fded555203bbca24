"""End-to-end command runs: JSON/CSV output, exit codes, determinism."""

import json

import numpy as np
import pytest

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
