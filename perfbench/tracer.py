"""Spans and exact work counters around gradedhh's layer entry points.

Only the traced run imports this module; an untraced run installs nothing.
``Tracer.install`` replaces each listed function or method with a wrapper,
in its defining module and under every name another gradedhh module bound
to it with ``from ... import`` (otherwise most calls would escape, e.g.
``dg_complexes.rank`` or ``hochschild.koszul_mul``).

Spans (name, start, end, parent, request) are kept in flat arrays, so a
pass with half a million ``Element.__mul__`` calls stays small.  Self time
is a span's duration minus the durations of its direct child spans.  Work
counters (matrix shapes, nnz, ranks, basis sizes) are captured as
references during the pass and reduced afterwards, outside every span.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

MARK = "_perfbench_original"

# (module, attribute, span name).  One span name may cover several entry
# points: "cli.report" is the JSON building and emitting of every report.
SPANS = [
    ("gradedhh.exact_linear", "rank", "exact_linear.rank"),
    ("gradedhh.exact_linear", "in_span", "exact_linear.in_span"),
    ("gradedhh.exact_linear", "kernel_basis", "exact_linear.kernel_basis"),
    ("gradedhh.hochschild", "bar_basis", "hochschild.bar_basis"),
    ("gradedhh.hochschild", "bar_window", "hochschild.bar_window"),
    ("gradedhh.hochschild", "hochschild_diff", "hochschild.hochschild_diff"),
    ("gradedhh.dg_complexes", "ChainWindow.__init__", "dg_complexes.ChainWindow.validate"),
    ("gradedhh.dg_complexes", "GradedComplex.realize", "dg_complexes.realize"),
    ("gradedhh.dg_complexes", "build_mdga_window", "dg_complexes.build_mdga_window"),
    ("gradedhh.dg_complexes", "dga_structure_check", "dg_complexes.dga_structure_check"),
    ("gradedhh.dg_complexes", "commutative_model_check", "dg_complexes.commutative_model_check"),
    ("gradedhh.graded_algebra", "Element.__mul__", "graded_algebra.Element.mul"),
    ("gradedhh.graded_algebra", "monomial_basis", "graded_algebra.monomial_basis"),
    ("gradedhh.trace_obstruction", "obstruction_report", "trace_obstruction.obstruction_report"),
    ("gradedhh.cli", "_emit", "cli.report"),
    ("gradedhh.hochschild", "HkrReport.to_json", "cli.report"),
    ("gradedhh.trace_obstruction", "ObstructionReport.to_json", "cli.report"),
]

# Entry points whose call count is all that is asked for: counted only.
COUNTERS = [
    ("gradedhh.graded_algebra", "koszul_mul", "graded_algebra.koszul_mul"),
    ("gradedhh.dg_complexes", "dga_diff", "dg_complexes.dga_diff"),
    ("gradedhh.exact_linear", "RationalMatrix.matmul", "exact_linear.matmul"),
]

REQUEST = "request"

# Per-layer metric -> unit.  The layer -> end-to-end map is in README.md.
LAYER_UNITS = {
    "exact_linear.rank.calls": "count",
    "exact_linear.rank.s": "s",
    "exact_linear.rank.nnz": "count",
    "exact_linear.rank.max_cols": "count",
    "exact_linear.rank.distinct_ratio": "ratio",
    "exact_linear.in_span.calls": "count",
    "exact_linear.in_span.s": "s",
    "exact_linear.kernel_basis.calls": "count",
    "exact_linear.kernel_basis.s": "s",
    "hochschild.bar_basis.s": "s",
    "hochschild.bar_basis.tensors": "count",
    "hochschild.bar_window.self_s": "s",
    "hochschild.hochschild_diff.calls": "count",
    "hochschild.hochschild_diff.s": "s",
    "dg_complexes.ChainWindow.validate_s": "s",
    "dg_complexes.ChainWindow.matmul_calls": "count",
    "graded_algebra.Element.mul.calls": "count",
    "graded_algebra.Element.mul.s": "s",
    "graded_algebra.koszul_mul.calls": "count",
    "dg_complexes.dga_diff.calls": "count",
    "dg_complexes.dga_structure_check.s": "s",
    "dg_complexes.commutative_model_check.self_s": "s",
    "dg_complexes.build_mdga_window.s": "s",
    "graded_algebra.monomial_basis.calls": "count",
    "graded_algebra.monomial_basis.s": "s",
    "graded_algebra.monomial_basis.distinct_ratio": "ratio",
    "dg_complexes.realize.s": "s",
    "trace_obstruction.obstruction_report.self_s": "s",
    "cli.report.s": "s",
}


def _resolve(module_name, attr):
    owner = sys.modules[module_name]
    *cls_path, name = attr.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner, name


def _content_key(m):
    return (m.rows, m.cols, frozenset(m.entries.items()))


def _caps_key(caps):
    return tuple(sorted(caps.items())) if isinstance(caps, dict) else caps


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.stack = [-1]
        self.current_request = [-1]
        self.counts = {}
        # span index and call data, reduced to work counters after the pass
        self.calls = {name: [] for name in (
            "exact_linear.rank", "exact_linear.in_span", "exact_linear.kernel_basis",
            "hochschild.bar_basis", "dg_complexes.ChainWindow.validate",
            "graded_algebra.monomial_basis",
        )}
        self.undo = []

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name):
        nid = self._name_id(name)
        start, end, names, parents, requests = (
            self.start, self.end, self.name, self.parent, self.request)
        stack, current = self.stack, self.current_request
        calls = self.calls.get(name)
        perf = time.perf_counter

        def wrapped(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(current[0])
            end.append(0.0)
            stack.append(i)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf()
                stack.pop()
            if calls is not None:
                calls.append((i, args, result))
            return result

        return wrapped

    def _count_wrapper(self, fn, name):
        counts = self.counts
        counts[name] = 0
        if name == "exact_linear.matmul":
            # only products taken by the d-compose-d validation
            validate = self._name_id("dg_complexes.ChainWindow.validate")
            names, stack = self.name, self.stack

            def wrapped(*args, **kwargs):
                if stack[-1] >= 0 and names[stack[-1]] == validate:
                    counts[name] += 1
                return fn(*args, **kwargs)
        else:
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        return wrapped

    def install(self):
        """Wrap every listed entry point under every name it is bound to."""
        modules = [m for n, m in sys.modules.items()
                   if n == "gradedhh" or n.startswith("gradedhh.")]
        targets = [(m, a, n, self._span_wrapper) for m, a, n in SPANS]
        targets += [(m, a, n, self._count_wrapper) for m, a, n in COUNTERS]
        for module_name, attr, name, make in targets:
            owner, key = _resolve(module_name, attr)
            original = owner.__dict__[key]
            wrapped = make(original, name)
            setattr(wrapped, MARK, original)
            if isinstance(owner, type):
                self.undo.append((owner, key, original))
                setattr(owner, key, wrapped)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self.undo.append((module, binding, original))
                        setattr(module, binding, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self.undo):
            setattr(owner, key, original)
        self.undo.clear()

    def begin_request(self, index):
        """Open the root span of one CLI request; returns its span index."""
        self.current_request[0] = index
        i = len(self.start)
        self.name.append(self._name_id(REQUEST))
        self.parent.append(-1)
        self.request.append(index)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def end_request(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()
        self.current_request[0] = -1

    # -- reduction ---------------------------------------------------------

    def span_totals(self):
        """{span name: (calls, total seconds, self seconds)}."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {}
        for i, nid in enumerate(self.name):
            calls, total, own = out.get(self.names[nid], (0, 0.0, 0.0))
            out[self.names[nid]] = (calls + 1, total + dur[i], own + dur[i] - child[i])
        return out

    def work_records(self):
        """Per-call sizes: matrix shape, nnz and result; basis sizes."""
        rec = {}
        rec["exact_linear.rank"] = [
            {"span": i, "rows": m.rows, "cols": m.cols, "nnz": len(m.entries), "rank": r}
            for i, (m,), r in self.calls["exact_linear.rank"]]
        rec["exact_linear.in_span"] = [
            {"span": i, "rows": m.rows, "cols": m.cols, "nnz": len(m.entries),
             "in_span": r.in_span}
            for i, (m, _v), r in self.calls["exact_linear.in_span"]]
        rec["exact_linear.kernel_basis"] = [
            {"span": i, "rows": m.rows, "cols": m.cols, "nnz": len(m.entries),
             "kernel_dim": len(r)}
            for i, (m,), r in self.calls["exact_linear.kernel_basis"]]
        rec["hochschild.bar_basis"] = [
            {"span": i, "level_sizes": [len(r[s]) for s in sorted(r)]}
            for i, _args, r in self.calls["hochschild.bar_basis"]]
        rec["dg_complexes.ChainWindow"] = [
            {"span": i, "lo": w.lo, "hi": w.hi,
             "basis_sizes": [len(w.basis[t]) for t in range(w.lo, w.hi + 1)]}
            for i, (w, *_rest), _r in self.calls["dg_complexes.ChainWindow.validate"]]
        rec["graded_algebra.monomial_basis"] = [
            {"span": i, "degree": args[1], "size": len(r)}
            for i, args, r in self.calls["graded_algebra.monomial_basis"]]
        return rec

    def metrics(self):
        """Per-layer metrics of this pass, keyed as in LAYER_UNITS."""
        totals = self.span_totals()

        def calls(name):
            return totals.get(name, (0, 0.0, 0.0))[0]

        def secs(name):
            return totals.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return totals.get(name, (0, 0.0, 0.0))[2]

        def ratio(distinct, n):
            return distinct / n if n else 0.0

        ranks = self.calls["exact_linear.rank"]
        bases = self.calls["graded_algebra.monomial_basis"]
        distinct_bases = {
            (args[0], args[1], _caps_key(args[2] if len(args) > 2 else None))
            for _i, args, _r in bases
        }
        out = {
            "exact_linear.rank.calls": calls("exact_linear.rank"),
            "exact_linear.rank.s": secs("exact_linear.rank"),
            "exact_linear.rank.nnz": sum(len(m.entries) for _i, (m,), _r in ranks),
            "exact_linear.rank.max_cols": max((m.cols for _i, (m,), _r in ranks), default=0),
            "exact_linear.rank.distinct_ratio": ratio(
                len({_content_key(m) for _i, (m,), _r in ranks}), len(ranks)),
            "exact_linear.in_span.calls": calls("exact_linear.in_span"),
            "exact_linear.in_span.s": secs("exact_linear.in_span"),
            "exact_linear.kernel_basis.calls": calls("exact_linear.kernel_basis"),
            "exact_linear.kernel_basis.s": secs("exact_linear.kernel_basis"),
            "hochschild.bar_basis.s": secs("hochschild.bar_basis"),
            "hochschild.bar_basis.tensors": sum(
                len(level) for _i, _a, r in self.calls["hochschild.bar_basis"]
                for level in r.values()),
            "hochschild.bar_window.self_s": own("hochschild.bar_window"),
            "hochschild.hochschild_diff.calls": calls("hochschild.hochschild_diff"),
            "hochschild.hochschild_diff.s": secs("hochschild.hochschild_diff"),
            "dg_complexes.ChainWindow.validate_s": secs("dg_complexes.ChainWindow.validate"),
            "dg_complexes.ChainWindow.matmul_calls": self.counts["exact_linear.matmul"],
            "graded_algebra.Element.mul.calls": calls("graded_algebra.Element.mul"),
            "graded_algebra.Element.mul.s": secs("graded_algebra.Element.mul"),
            "graded_algebra.koszul_mul.calls": self.counts["graded_algebra.koszul_mul"],
            "dg_complexes.dga_diff.calls": self.counts["dg_complexes.dga_diff"],
            "dg_complexes.dga_structure_check.s": secs("dg_complexes.dga_structure_check"),
            "dg_complexes.commutative_model_check.self_s": own(
                "dg_complexes.commutative_model_check"),
            "dg_complexes.build_mdga_window.s": secs("dg_complexes.build_mdga_window"),
            "graded_algebra.monomial_basis.calls": calls("graded_algebra.monomial_basis"),
            "graded_algebra.monomial_basis.s": secs("graded_algebra.monomial_basis"),
            "graded_algebra.monomial_basis.distinct_ratio": ratio(
                len(distinct_bases), len(bases)),
            "dg_complexes.realize.s": secs("dg_complexes.realize"),
            "trace_obstruction.obstruction_report.self_s": own(
                "trace_obstruction.obstruction_report"),
            "cli.report.s": secs("cli.report"),
        }
        return out

    def write(self, path, meta):
        """Write the spans and work records of this pass as gzipped JSON."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = dict(meta)
        doc["span_names"] = self.names
        doc["spans"] = {
            "name": list(self.name),
            "start": [t - t0 for t in self.start],
            "end": [t - t0 for t in self.end],
            "parent": list(self.parent),
            "request": list(self.request),
        }
        doc["counters"] = dict(self.counts)
        doc["work"] = self.work_records()
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
