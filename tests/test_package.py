"""The package's public names and the shape of its records."""

import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import aimcf


def test_public_names_resolve_sorted_and_unique():
    names = aimcf.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(aimcf, name)]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from aimcf import *", namespace)
    assert set(aimcf.__all__) <= namespace.keys()


# the library's records: field names in order, and the defaults
RECORDS = {
    aimcf.AIMSequences: ("lam", "s", "delta"),
    aimcf.PQSequences: ("p", "q", "stop_level=None", "stop_reason=None"),
    aimcf.ConvergenceReport: ("verdict", "partial_sum", "product_bound", "exp_bound", "mu"),
    aimcf.PincherleResult: ("cf_limit", "backward_ratio", "agreement"),
    aimcf.DoubleRootData: ("r", "gamma_pm", "alpha_tilde", "c1_pm"),
    aimcf.EqualExponentData: ("alpha_pm", "gap", "subcase", "log_term_possible"),
    aimcf.BirkhoffAdamsData: (
        "a_coeffs", "b_coeffs", "r_pm", "alpha_pm", "c_table", "double_root", "equal_exponent",
    ),
    aimcf.ClassificationReport: (
        "q_limit", "a_n_samples", "roots", "case_label", "power_law", "ba_data",
        "minimal_exists", "numeric_dominant_ratio", "numeric_minimal_ratio", "pincherle",
        "consistency", "notes=()",
    ),
}


def _signature(cls) -> tuple[str, ...]:
    return tuple(
        p.name if p.default is p.empty else f"{p.name}={p.default!r}"
        for p in inspect.signature(cls).parameters.values()
    )


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__name__ for cls in RECORDS])
def test_records_keep_fields_defaults_and_refuse_assignment(cls):
    fields = _signature(cls)
    assert fields == RECORDS[cls]
    record = cls(*(None for f in fields if "=" not in f))
    with pytest.raises(AttributeError):
        setattr(record, fields[0], 1.0)


def test_records_keep_depth():
    assert aimcf.AIMSequences((None,) * 4, (None,) * 4, np.zeros(3)).depth == 3
    pq = aimcf.PQSequences(np.zeros(5), np.ones(5))
    assert (pq.depth, pq.stop_level, pq.stop_reason) == (4, None, None)


def test_only_three_classes_are_dataclasses():
    """Each dataclass costs its generated methods at import; only these three
    use what the decorator gives (``dataclasses.replace``, a validating
    ``__post_init__``, private fields set by keyword)."""
    found = set()
    for info in pkgutil.iter_modules(aimcf.__path__):
        module = importlib.import_module(f"aimcf.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                if dataclasses.is_dataclass(obj):
                    found.add(name)
    assert found == {"ProblemSpec", "TaylorSeries", "CFState"}


def _module_trees():
    for path in sorted(Path(aimcf.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_only_cf_reads_the_scaled_approximant_state():
    """``cf`` alone knows how a fraction run stores its mantissas and
    exponents; ``analysis`` reads that state through ``cf``'s public names."""
    private = {f.name for f in dataclasses.fields(aimcf.CFState) if f.name.startswith("_")}
    assert private
    readers = set()
    for name, tree in _module_trees():
        for node in ast.walk(tree):
            named = (
                node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.arg if isinstance(node, ast.keyword)
                else None
            )
            if named in private:
                readers.add(name)
    assert readers == {"cf"}
    imported = {
        alias.name
        for name, tree in _module_trees() if name == "analysis"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "cf" and node.level == 1
        for alias in node.names
    }
    assert imported and not [n for n in imported if n.startswith("_")]


def test_one_loop_reads_the_rescale_band():
    """Every fraction recurrence in ``cf`` runs on one band-scaled loop:
    ``cf._run`` is the one function in ``src/`` that reads ``_BAND``, and no
    code outside a function reads it."""
    readers = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        named = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else None
        )
        if named == "_BAND" and isinstance(node.ctx, ast.Load):
            readers.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for name, tree in _module_trees():
        visit(tree, name, None)
    assert readers == {("cf", "_run")}


def test_one_function_builds_the_term_plan():
    """Both delta kernels run one term plan: ``aim._plan`` builds it and is
    the one function in ``aim`` that tests the parity of a term order, which
    decides the symmetric route, beside ``_cross_deltas``, whose parity is that
    of a depth, the sign pattern of the one-solution delta formula.  Only
    ``aim._evaluator`` names ``_plan`` or ``_tables``, the factorial scale of
    the derivatives, so neither kernel carries a symmetric test or works the
    term structure out on its own."""
    parity, readers = set(), {"_plan": set(), "_tables": set()}

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and function is None:
            function = node.name  # the module-level function, closures included
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mod)
            and getattr(node.right, "value", None) == 2
            and module == "aim"
        ):
            parity.add(function)
        if isinstance(node, ast.Name) and node.id in readers:
            readers[node.id].add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for name, tree in _module_trees():
        visit(tree, name, None)
    assert parity == {"_plan", "_cross_deltas"}
    assert readers == {name: {("aim", "_evaluator")} for name in readers}


def test_term_plans_form_only_the_binomials_they_list():
    """``aim._plan`` forms the binomials of a plan itself, and only those it
    lists: ``aim._tables`` returns only the factorial scale, a mantissa and a
    power of two per order, so no Pascal rows are built beside the plans;
    down columns that run past double range, each C(k, t) of a plan is the
    exact ``math.comb`` correctly rounded, inf where that overflows; and
    ``aim._evaluator`` keeps the plans of a search in a memo of ``_plan``,
    building no dict of its own."""
    from aimcf import aim

    mant, exp = aim._tables(6)
    assert np.ldexp(mant, exp).tolist() == [1.0, 1.0, 2.0, 6.0, 24.0, 120.0]

    def rounded(n):
        try:
            return float(n)
        except OverflowError:
            return math.inf

    width, orders = 1100, (0, 1, 7, 500, 549, 1099)
    levels = aim._plan(width, tuple((t, True, False) for t in orders))[1]
    for k, level in enumerate(levels):
        assert [c for c, *_ in level] == [rounded(math.comb(k, t)) for t in orders if t <= k], k
    assert math.inf in {c for level in levels for c, *_ in level}

    evaluator = next(
        node
        for name, tree in _module_trees() if name == "aim"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_evaluator"
    )
    built = [
        node for node in ast.walk(evaluator)
        if isinstance(node, (ast.Dict, ast.DictComp))
        or (isinstance(node, ast.Name) and node.id == "dict")
    ]
    assert built == []


def test_one_term_shape_and_one_scan_loop():
    """Both routes share one term shape and the batched kernel one loop:
    ``aim._scan_deltas`` holds exactly one loop that is not nested in another,
    over the plan's levels, and every term ``aim._plan`` emits is ``(C(k, t),
    i, slot, other)``, at a symmetric centre (L odd and S even) and off it,
    with ``other`` set only where an order takes both L^(t) and S^(t)."""
    from aimcf import aim

    scan = next(
        node
        for _, tree in _module_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_scan_deltas"
    )
    nested = {
        inner for node in ast.walk(scan) if isinstance(node, ast.For)
        for body in node.body for inner in ast.walk(body) if isinstance(inner, ast.For)
    }
    outer = [node for node in ast.walk(scan) if isinstance(node, ast.For) and node not in nested]
    assert len(outer) == 1
    assert "levels" in {n.id for n in ast.walk(outer[0].iter) if isinstance(n, ast.Name)}

    for terms, symmetric in (
        (((0, False, True), (1, True, False), (3, True, False)), True),
        (((0, True, True), (1, True, False), (2, False, True)), False),
    ):
        found, levels = aim._plan(6, terms)
        assert found is symmetric
        shapes = {len(term) for level in levels for term in level}
        assert shapes == {4}, (symmetric, shapes)
        both = {t for t, l, s in terms if l and s}
        for k, level in enumerate(levels):
            for (t, l, _), (c, i, slot, other) in zip(terms, level):
                c = float(math.comb(k, t))
                want = (c, k + 1 - t, t) if l else (c, k - t, 6 + t)
                assert (c, i, slot) == want, (symmetric, k, t)
                assert other == (6 + t if t in both else None)


def test_every_problem_spec_field_has_a_reader():
    """A field that no code reads is a setting with no effect: each field of
    ``ProblemSpec`` is read as an attribute somewhere in ``src/`` outside the
    class.  Reads of ``self.<name>`` are left out, so the class's own methods
    and another class's attribute of the same name (the parser's
    ``self.param_name``) do not count."""
    fields = {f.name for f in dataclasses.fields(aimcf.ProblemSpec)}
    read = {
        node.attr
        for _, tree in _module_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    }
    assert sorted(fields - read) == []


def test_one_function_decides_that_no_minimal_solution_exists():
    """Miller's estimates decide, by one rule, whether a minimal solution can
    be read: ``analysis._miller`` is the one function in ``src/`` that raises
    ``NoConvergence``, and "no minimal solution found" is written once, in
    ``classify``'s ``except`` around them."""
    raisers, notes = set(), []

    def visit(node, module, function, handled):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        handled = handled or isinstance(node, ast.ExceptHandler)
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "NoConvergence":
                raisers.add((module, function))
        if isinstance(node, ast.Constant) and "no minimal solution found" in str(node.value):
            notes.append((module, function, handled))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function, handled)

    for name, tree in _module_trees():
        visit(tree, name, None, False)
    assert raisers == {("analysis", "_miller")}
    assert notes == [("analysis", "classify", True)]


def test_one_function_walks_the_expression_tree():
    """An expression is walked once, by one binder: ``series._bind`` is the
    one function in ``src/`` that tests a value against the node classes of
    ``Expression`` with ``isinstance``, so no second walk of the tree can
    disagree with it."""
    nodes = {cls.__name__ for cls in aimcf.series.Expression.__args__}
    walkers = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
        ):
            tested = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if nodes & {getattr(c, "id", getattr(c, "attr", None)) for c in tested}:
                walkers.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for name, tree in _module_trees():
        visit(tree, name, None)
    assert walkers == {("series", "_bind")}


def test_only_analysis_names_the_declaration_keys():
    """``analysis`` owns the schema of a declaration: the keys of a declared
    power law or 1/n expansion are string constants there alone, so the CLI
    hands a declaration over without a copy of its rules."""
    keys = {"sigma", "tau", "a_coeffs", "b_coeffs", "k_max"}
    namers = {
        name
        for name, tree in _module_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in keys
    }
    assert namers == {"analysis"}


def test_one_function_holds_the_real_number_rule():
    """Every value that must be a real number is checked by one rule:
    ``errors.require_number`` is the one function in ``src/`` whose code,
    docstrings aside, writes the word "real" into a message."""
    holders = set()

    def visit(node, module, function, docs):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Constant)
            and id(node) not in docs
            and isinstance(node.value, str)
            and re.search(r"\breal\b", node.value)
        ):
            holders.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function, docs)

    for name, tree in _module_trees():
        docs = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node, clean=False) is not None
        }
        visit(tree, name, None, docs)
    assert holders == {("errors", "require_number")}
