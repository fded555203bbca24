"""Outside-in tracing of aimcf: spans recorded by wrapping public functions.

Nothing in ``src/`` is edited.  Each wrapper is installed in the namespace of
the module that calls the function, because callers bind names at import
(``cli`` imports ``find_eigenvalues``, ``pq_iterate``, ``cf_approximants`` and
``cf_determinants``; ``cf`` imports ``series_div``; ``aim`` imports
``series_from_expr`` and ``parse_expression``; ``analysis`` calls its own
``miller_minimal_ratio`` and the ``cf_approximants`` it imports).  Wrapping
``series_from_expr`` only where ``aim`` looks it up records the outermost call
of that recursive function and none of its inner calls.

``TaylorSeries.__post_init__`` runs about 10^5 times per solve op, so its
calls are folded into the enclosing span as a count and a duration instead of
being kept as spans of their own.  A span's self time is its duration minus
its child spans and folded calls.  Spans stay in memory, each with its parent
and op index, until :meth:`Tracer.write` saves them.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child", "folds", "fold_s", "attrs")

    def __init__(self, name: str, op: int, parent: Optional[int], start: float):
        self.name, self.op, self.parent, self.start = name, op, parent, start
        self.end = math.nan
        self.child = 0.0  # time covered by child spans and folded calls
        self.folds = 0
        self.fold_s = 0.0
        self.attrs: dict = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._search: Optional[dict] = None  # the open find_eigenvalues call
        self.op = -1

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.op, parent, _clock())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = _clock()
        self._stack.pop()
        if self._stack:
            self.spans[self._stack[-1]].child += span.end - span.start

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             before: Optional[Callable] = None, after: Optional[Callable] = None):
        span = self._open(name)
        try:
            if before is not None:
                before(self, span, args, kwargs)
            result = fn(*args, **kwargs)
            if after is not None:
                after(self, span, result)
            return result
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before, after)

        return traced

    def fold(self, fn: Callable) -> Callable:
        def folded(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                top = self.spans[self._stack[-1]]
                top.child += dt
                top.folds += 1
                top.fold_s += dt

        return folded

    # -- hooks that label spans ------------------------------------------

    @staticmethod
    def _search_open(tracer: "Tracer", span: Span, args: tuple, kwargs: dict) -> None:
        spec = args[0]
        n = kwargs.get("n", args[4] if len(args) > 4 else None)
        tracer._search = {"n": spec.n_max if n is None else n, "grid": args[3], "scanned": 0}

    @staticmethod
    def _search_done(tracer: "Tracer", span: Span, roots) -> None:
        span.attrs["roots"] = len(roots)
        span.attrs["recheck_inf"] = sum(1 for r in roots if math.isinf(r.residual))
        tracer._search = None

    @staticmethod
    def _ladder_phase(tracer: "Tracer", span: Span, args: tuple, kwargs: dict) -> None:
        search = tracer._search
        if search is None:
            return
        depth = kwargs.get("depth", args[2] if len(args) > 2 else None)
        if depth == search["n"] + 2:
            span.attrs["phase"] = "recheck"
        elif depth == search["n"]:
            span.attrs["phase"] = "scan" if search["scanned"] < search["grid"] else "refine"
            search["scanned"] += 1

    @staticmethod
    def _pq_done(tracer: "Tracer", span: Span, pq) -> None:
        span.attrs["levels"] = pq.depth
        span.attrs["terminated"] = pq.stop_reason == "termination"

    # -- installation ----------------------------------------------------

    @contextmanager
    def installed(self, modules: dict):
        """Install every wrapper into the calling modules; restore on exit."""
        cli, aim, cf = modules["cli"], modules["aim"], modules["cf"]
        series, analysis = modules["series"], modules["analysis"]
        plan = [
            (cli, "find_eigenvalues", "aim.find_eigenvalues", self._search_open, self._search_done),
            (cli, "pq_iterate", "cf.pq_iterate", None, self._pq_done),
            (cli, "cf_approximants", "cf.cf_approximants", None, None),
            (cli, "cf_determinants", "cf.cf_determinants", None, None),
            (aim, "aim_iterate", "aim.aim_iterate", self._ladder_phase, None),
            (aim, "series_from_expr", "series.series_from_expr", None, None),
            (aim, "parse_expression", "series.parse_expression", None, None),
            (cf, "series_div", "series.series_div", None, None),
            (analysis, "classify", "analysis.classify", None, None),
            (analysis, "pincherle_check", "analysis.pincherle_check", None, None),
            (analysis, "miller_minimal_ratio", "analysis.miller_minimal_ratio", None, None),
            (analysis, "cf_approximants", "cf.cf_approximants", None, None),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in plan]
        post_init = series.TaylorSeries.__post_init__
        try:
            for (mod, attr, name, before, after), (_, _, fn) in zip(plan, saved):
                setattr(mod, attr, self.wrap(name, fn, before, after))
            series.TaylorSeries.__post_init__ = self.fold(post_init)
            yield
        finally:
            series.TaylorSeries.__post_init__ = post_init
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def run_op(self, op: int, main: Callable, argv: list):
        """Call ``main(argv)`` inside the op's root span ``cli.main``."""
        self.op = op
        self._search = None
        return self.call("cli.main", main, (argv,), {})

    # -- results -----------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op means of the per-layer metrics over ``n_ops`` traced ops."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        phases: Counter = Counter()
        attr_sum: Counter = Counter()
        folds, fold_s = 0, 0.0
        for s in self.spans:
            calls[s.name] += 1
            self_s[s.name] += s.self_s
            folds += s.folds
            fold_s += s.fold_s
            if "phase" in s.attrs:
                phases[s.attrs["phase"]] += 1
            for key in ("roots", "recheck_inf", "levels", "terminated"):
                attr_sum[key] += int(s.attrs.get(key, 0))
        evals = calls["aim.aim_iterate"]
        ladder = self_s["aim.aim_iterate"]
        roots = attr_sum["roots"]
        totals = {
            "aim.evals": evals,
            "aim.evals_scan": phases["scan"],
            "aim.evals_refine": phases["refine"],
            "aim.evals_recheck": phases["recheck"],
            "aim.ladder_s": ladder,
            "aim.find_s": self_s["aim.find_eigenvalues"],
            "aim.roots": roots,
            "aim.recheck_inf": attr_sum["recheck_inf"],
            "series.objects": folds,
            "series.validate_s": fold_s,
            "series.expr_calls": calls["series.series_from_expr"],
            "series.expr_s": self_s["series.series_from_expr"],
            "series.div_calls": calls["series.series_div"],
            "series.div_s": self_s["series.series_div"],
            "series.parse_s": self_s["series.parse_expression"],
            "cf.pq_calls": calls["cf.pq_iterate"],
            "cf.pq_levels": attr_sum["levels"],
            "cf.pq_terminated": attr_sum["terminated"],
            "cf.pq_s": self_s["cf.pq_iterate"],
            "cf.approx_calls": calls["cf.cf_approximants"],
            "cf.approx_s": self_s["cf.cf_approximants"],
            "cf.det_s": self_s["cf.cf_determinants"],
            "analysis.classify_s": self_s["analysis.classify"],
            "analysis.pincherle_s": self_s["analysis.pincherle_check"],
            "analysis.miller_calls": calls["analysis.miller_minimal_ratio"],
            "analysis.miller_s": self_s["analysis.miller_minimal_ratio"],
            "cli.self_s": self_s["cli.main"],
        }
        out = {k: v / n_ops for k, v in totals.items()}
        out["aim.s_per_eval"] = ladder / evals if evals else 0.0
        out["aim.useful_frac"] = (roots - attr_sum["recheck_inf"]) / roots if roots else 0.0
        return out

    def write(self, path: Path) -> None:
        """Save every span as one JSON line, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i, "parent": s.parent, "op": s.op, "name": s.name,
                    "start": s.start - t0, "end": s.end - t0, "self": s.self_s,
                    "folds": s.folds, "fold_s": s.fold_s, **s.attrs,
                }
                fh.write(json.dumps(row, sort_keys=True) + "\n")
