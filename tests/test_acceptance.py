"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single verdict line
(visible with -rP or -s) before asserting, so a red run still reports
every criterion it reached.
"""

import contextlib
import dataclasses
import io
import json
import time
import warnings
from fractions import Fraction

import numpy as np
import scipy.special as sps

from aimcf import cli
from aimcf.aim import (
    ConditioningWarning,
    ProblemSpec,
    aim_iterate,
    aim_matrix_iterate,
    delta_n,
)
from aimcf.analysis import (
    CaseLabel,
    Verdict,
    birkhoff_adams,
    bound_check,
    classify,
    pincherle_check,
    stern_seidel,
)
from aimcf.cf import (
    DeterminantMismatchWarning,
    alpha_partial_sums,
    cf_approximants,
    cf_determinants,
    detect_termination,
    pq_iterate,
    terminated_alpha,
)
from aimcf.reconstruct import (
    build_solution,
    ode_residual,
    riccati_residual,
)
from test_aim import reference_ladder

OSCILLATOR = ("2*x", "1 - E", "E")


def _verdict(num: int, detail: str, ok: bool) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_corpus(count: int = 100, seed: int = 20260821):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(5, 31))
        out.append((rng.uniform(0.5, 2.0, size=n), rng.uniform(0.5, 2.0, size=n)))
    return out


def _bessel_pq(size: int = 240):
    return [2.0 * (n + 1) for n in range(size)], [-1.0] * size


def test_criterion_01_oscillator_spectrum_within_budget(tmp_path):
    payload = {
        "lambda0": OSCILLATOR[0],
        "s0": OSCILLATOR[1],
        "parameter": OSCILLATOR[2],
        "x0": 0.0,
        "order": 80,
        "n_max": 40,
        "search": {"e_min": 0.0, "e_max": 12.0, "grid": 101, "tol": 1e-10},
    }
    path = tmp_path / "oscillator.json"
    path.write_text(json.dumps(payload))
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["solve", str(path)])
    elapsed = time.perf_counter() - t0
    record = json.loads(buf.getvalue())
    values = np.array([row["value"] for row in record["outputs"]["eigenvalues"]])
    target = np.array([1.0, 3.0, 5.0, 7.0, 9.0, 11.0])
    err = np.max(np.abs(values - target)) if values.shape == (6,) else np.inf
    ok = code == 0 and err < 1e-8 and elapsed < 10.0
    _verdict(
        1,
        f"solve finds 1,3,5,7,9,11 at depth 40 (err {err:.1e}, {elapsed:.2f}s)",
        ok,
    )


def test_criterion_02_termination_levels_and_deltas():
    details = []
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        spec = ProblemSpec.from_strings(*OSCILLATOR, x0=0.0, order=40, n_max=20)
        for energy, level in ((1.0, 0), (3.0, 1), (5.0, 2)):
            seqs = aim_iterate(dataclasses.replace(spec, n_max=level + 8), energy)
            worst = max(
                abs(delta_n(seqs, n)) for n in range(level + 1, level + 8)
            )
            pq = pq_iterate(dataclasses.replace(spec, n_max=level + 6), energy)
            found = detect_termination(pq)
            ok = ok and worst < 1e-12 and found == level
            details.append(f"E={energy:g} level {found} max|delta| {worst:.1e}")
    _verdict(2, "; ".join(details), ok)


def test_criterion_03_scalar_fixed_point_limits():
    state = cf_approximants(np.full(41, 3.0), np.full(41, 4.0))
    err_unit = abs(state.C[40] - 1.0)
    golden = cf_approximants(np.ones(51), np.ones(51))
    err_gold = abs(golden.C[50] - (np.sqrt(5.0) - 1.0) / 2.0)
    ok = err_unit < 1e-12 and err_gold < 1e-10
    _verdict(
        3,
        f"K(4/3+...) err {err_unit:.1e} by n=40; K(1/1+...) err {err_gold:.1e} by n=50",
        ok,
    )


def test_criterion_04_determinant_identity_exact():
    worst = Fraction(0)
    for p, q in _random_corpus():
        pf = [Fraction(v) for v in p]
        qf = [Fraction(v) for v in q]
        a_prev, a_cur = Fraction(1), Fraction(0)
        b_prev, b_cur = Fraction(0), Fraction(1)
        prod = Fraction(1)
        for k in range(len(pf)):
            a_prev, a_cur = a_cur, pf[k] * a_cur + qf[k] * a_prev
            b_prev, b_cur = b_cur, pf[k] * b_cur + qf[k] * b_prev
            prod *= qf[k]
            det = a_cur * b_prev - a_prev * b_cur
            expected = prod if k % 2 == 0 else -prod
            worst = max(worst, abs(det - expected) / abs(expected))
        state = cf_approximants(p, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeterminantMismatchWarning)
            cf_determinants(state)
    ok = float(worst) < 1e-12
    _verdict(
        4,
        f"A_n B_n-1 - A_n-1 B_n vs q product on 100 sequences, max rel err {float(worst):.1e}",
        ok,
    )


def test_criterion_05_partial_sums_match_approximants():
    worst = 0.0
    for p, q in _random_corpus():
        state = cf_approximants(p, q)
        sums = alpha_partial_sums(state)
        rel = np.max(np.abs(sums - state.C) / np.abs(state.C))
        worst = max(worst, float(rel))
    ok = worst < 1e-12
    _verdict(5, f"telescoped partial sums vs C on same corpus, max rel {worst:.1e}", ok)


def test_criterion_06_convergence_verdicts_and_product_bound():
    ones = np.ones(51)
    rep_c = stern_seidel(ones)
    st_ones = cf_approximants(ones, np.ones(51))
    cauchy = abs(st_ones.C[50] - st_ones.C[49])
    halving = 0.5 ** np.arange(51.0)
    rep_d = stern_seidel(halving)
    st_half = cf_approximants(halving, np.ones(51))
    parity_gap = abs(st_half.C[50] - st_half.C[49])
    rng = np.random.default_rng(99)
    corpora = [ones, halving] + [rng.uniform(1.0, 3.0, size=51) for _ in range(10)]
    bound_ok = True
    for p in corpora:
        st = cf_approximants(p, np.ones(p.size))
        mu2 = min(1.0, float(p[0])) ** 2
        run = 0.0
        for n in range(p.size):
            run += float(p[n])
            if not st.B(n) * st.B(n - 1) >= mu2 * run:
                bound_ok = False
    ok = (
        rep_c.verdict is Verdict.CONVERGES
        and cauchy < 1e-12
        and rep_d.verdict is Verdict.DIVERGES
        and parity_gap > 1e-3
        and bound_ok
    )
    _verdict(
        6,
        f"p=1 {rep_c.verdict.value} (gap {cauchy:.1e}); p=2^-n {rep_d.verdict.value} "
        f"(gap {parity_gap:.1e}); B product bound exact on 12 corpora",
        ok,
    )


def test_criterion_07_approximant_difference_bound():
    rng = np.random.default_rng(4242)
    corpora = [np.ones(51)]
    corpora += [rng.uniform(1.0, 3.0, size=51) for _ in range(10)]
    corpora += [1.0 + rng.uniform(0.0, 1.0, size=51) for _ in range(5)]
    rows = 0
    violations = 0
    for p in corpora:
        state = cf_approximants(p, np.ones(p.size))
        for _, _, _, good in bound_check(state):
            rows += 1
            violations += 0 if good else 1
    ok = rows > 0 and violations == 0
    _verdict(
        7,
        f"|C_n - C_n-1| < 1/((n+1) mu^2) on {rows} rows, {violations} violations",
        ok,
    )


def test_criterion_08_pincherle_agreement():
    res_unit = pincherle_check([3.0] * 120, [4.0] * 120)
    res_gold = pincherle_check([1.0] * 160, [1.0] * 160)
    res_bess = pincherle_check(*_bessel_pq())
    scipy_ref = -sps.j1(1.0) / sps.j0(1.0)
    errs = [
        abs(res_unit.cf_limit + res_unit.backward_ratio),
        abs(res_gold.cf_limit + res_gold.backward_ratio),
        abs(res_bess.cf_limit + res_bess.backward_ratio),
    ]
    bess_err = abs(res_bess.cf_limit - scipy_ref)
    ok = max(errs) < 1e-10 and bess_err < 1e-10
    _verdict(
        8,
        f"|cf limit + psi ratio| max {max(errs):.1e}; Bessel limit vs scipy {bess_err:.1e}",
        ok,
    )


def test_criterion_09_terminating_reconstruction():
    worst_ricc = worst_fact = worst_ode = 0.0
    for energy, x0 in ((1.0, 0.5), (3.0, 1.0), (5.0, 2.0)):
        spec = ProblemSpec.from_strings(*OSCILLATOR, x0=x0, order=30, n_max=10)
        level = detect_termination(pq_iterate(spec, energy))
        assert level is not None
        alpha = terminated_alpha(aim_iterate(spec, energy), level)
        ricc = riccati_residual(alpha, spec, energy)
        lam0, s0 = spec.series_pair(energy)
        fact = -((alpha.diff() + alpha * -(lam0 + alpha)) + s0)
        worst_ricc = max(worst_ricc, float(np.max(np.abs(ricc.coeffs[:21]))))
        worst_fact = max(worst_fact, float(np.max(np.abs(fact.coeffs + ricc.coeffs))))
        for c1, c2 in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
            y = build_solution(alpha, spec, energy, C1=c1, C2=c2)
            res = ode_residual(y, spec, energy)
            worst_ode = max(worst_ode, float(np.max(np.abs(res.coeffs))))
    ok = worst_ricc < 1e-10 and worst_fact < 1e-12 and worst_ode < 1e-8
    _verdict(
        9,
        f"riccati residual {worst_ricc:.1e} to order 20; factorization vs -riccati "
        f"{worst_fact:.1e}; ode residual {worst_ode:.1e}",
        ok,
    )


def test_criterion_10_coefficient_table_matches_series_ladder():
    spec = ProblemSpec.from_strings(*OSCILLATOR, x0=0.0, order=122, n_max=60)
    ref_l, ref_s = reference_ladder(spec, 4.7, 60)
    table = aim_matrix_iterate(spec, 4.7, m_max=61)
    worst = 0.0
    for n in range(61):
        for m in range(61 - n):
            for slot, series in ((0, ref_l[n]), (1, ref_s[n])):
                ref = series.coeffs[m]
                rel = abs(table[m, n, slot] - ref) / max(1.0, abs(ref))
                worst = max(worst, rel)
    ok = worst < 1e-13
    _verdict(10, f"table vs reference ladder over m+n<=60, max rel dev {worst:.1e}", ok)


def test_criterion_11_recurrence_classification():
    rep_const = classify([3.0] * 121, [4.0] * 121)
    dom_err = abs(rep_const.numeric_dominant_ratio - 4.0)
    min_err = abs(rep_const.numeric_minimal_ratio - (-1.0))
    rep_bess = classify(
        *_bessel_pq(), declared={"a": 2.0, "sigma": 1.0, "b": -1.0, "tau": 0.0}
    )
    # a wrong-sign b flips only the predicted minimal ratio
    rep_wrong_b = classify(
        *_bessel_pq(), declared={"a": 2.0, "sigma": 1.0, "b": 1.0, "tau": 0.0}
    )
    ba = birkhoff_adams((-3.0,), (-4.0,), k_max=5)
    roots = sorted(ba.r_pm, key=lambda z: z.real)
    root_err = max(abs(roots[0] - (-1.0)), abs(roots[1] - 4.0))
    tail = max(max(abs(c) for c in row[1:]) for row in ba.c_table)
    ok = (
        rep_const.case_label is CaseLabel.CASE_1A
        and rep_const.minimal_exists
        and dom_err < 1e-8
        and min_err < 1e-8
        and rep_bess.case_label is CaseLabel.CASE_4A
        and rep_bess.minimal_exists
        and rep_bess.consistency
        and rep_bess.notes == ()
        and not rep_wrong_b.consistency
        and root_err < 1e-8
        and tail < 1e-12
    )
    _verdict(
        11,
        f"case 1a ratio errs ({dom_err:.1e}, {min_err:.1e}); Bessel 4a consistent with "
        f"decaying minimal ratio; constant-term roots err {root_err:.1e}, "
        f"correction tail {tail:.1e}",
        ok,
    )
