"""Layer spans recorded from outside qtop, and the per-layer metrics they give.

A ``Recorder`` wraps public qtop functions so that each call records a
span: name, layer, start, end, parent span and thread.  Every thread keeps
its own stack of open spans.  Work that ``ThreadPoolExecutor`` runs in a
worker thread takes the innermost open span of the submitting thread as
its parent, so a factorization inside ``chart_grid`` is a child of that
``chart_grid`` call whichever thread ran it.

A span's self time is its duration minus the length of the union of its
children's intervals (children on two threads may overlap).

``install`` rebinds the wrapped functions wherever a ``qtop`` module holds
them and replaces three class attributes.  A target that no longer exists
is listed as missing, and every metric that depends on it reads ``None``
(never 0); the run goes on.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor


class Recorder:
    """Spans kept in memory; one open-span stack per thread."""

    def __init__(self):
        self.spans = []
        self.missing = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Innermost open span of this thread, else the span it was submitted from."""
        stack = self._stack()
        if stack:
            return stack[-1]["id"]
        return getattr(self._local, "inherited", None)

    def open(self, name, layer):
        parent = self.current()
        with self._lock:
            span = {"id": self._next_id, "name": name, "layer": layer,
                    "parent": parent, "thread": threading.get_ident(),
                    "start": time.perf_counter(), "end": None, "attrs": {}}
            self._next_id += 1
            self.spans.append(span)
        self._stack().append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def wrap(self, fn, name, layer, annotate=None):
        """``fn`` recording one span per call; ``annotate(args, result)`` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if annotate is not None:
                try:
                    span["attrs"].update(annotate(args, result))
                except (AttributeError, TypeError, ValueError, IndexError):
                    self.missing.add(f"{name}:attrs")
            return result

        return traced

    def carry(self, fn):
        """``fn`` to run in another thread under the caller's innermost open span."""
        parent = self.current()

        def run(*args, **kwargs):
            previous = getattr(self._local, "inherited", None)
            self._local.inherited = parent
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.inherited = previous

        return run


# ------------------------------------------------------------ targets


def _factorization(_args, result):
    return {"truncation": float(result.truncation), "residual": float(result.residual),
            "condition": float(result.condition)}


def _seam(_args, result):
    return {"seam_residual": float(max(result.seam_residuals.values()))}


def _w3(_args, result):
    return {"residual": float(result.residual)}


def _rows_of(op):
    matrix = getattr(op, "matrix", op)
    return int(matrix.shape[0])


def _assembled(_args, result):
    return {"rows": _rows_of(result)}


def _decomposed(args, _result):
    return {"rows": _rows_of(args[0])}


# (layer, module, qualified attribute, annotation of the return value).
# Span names are "<layer>.<attribute>".
TARGETS = (
    ("symbols", "qtop.symbols", "LaurentSymbol.slice", None),
    ("symbols", "qtop.symbols", "load_symbol", None),
    ("wiener_hopf", "qtop.wiener_hopf", "canonical_factorize", _factorization),
    ("wiener_hopf", "qtop.wiener_hopf", "certify_invertible", None),
    ("wiener_hopf", "qtop.wiener_hopf", "winding_of_det", None),
    ("wiener_hopf", "qtop.wiener_hopf", "toeplitz_kernel_dim", None),
    ("wiener_hopf", "qtop.wiener_hopf", "partial_indices", None),
    ("extension", "qtop.extension", "build_extended", _seam),
    ("extension", "qtop.extension", "ExtendedSymbol.chart_grid", None),
    ("extension", "qtop.extension", "ExtendedSymbol.factor_at", None),
    ("invariants", "qtop.invariants", "calibrate_orientation", None),
    ("invariants", "qtop.invariants", "w3", _w3),
    ("operators", "qtop.operators", "numerical_index", None),
    ("operators", "qtop.operators", "certify_fredholm", None),
    ("operators", "qtop.operators", "kernel_dim", _decomposed),
    ("operators", "qtop.operators", "assemble", _assembled),
    ("operators", "qtop.operators", "corner_spectrum", None),
    ("operators", "qtop.operators", "spectral_flow", None),
)


def span_name(layer, attribute):
    return f"{layer}.{attribute.rsplit('.', 1)[-1]}"


def install(recorder):
    """Wrap every target in the ``qtop`` modules; returns the wrapped ``main``."""
    import qtop.cli  # loads every layer module

    for layer, module_name, attribute, annotate in TARGETS:
        name = span_name(layer, attribute)
        module = sys.modules.get(module_name)
        owner_name, _, leaf = attribute.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            recorder.missing.add(name)
            continue
        traced = recorder.wrap(original, name, layer, annotate)
        if owner_name:
            setattr(owner, leaf, traced)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "qtop" or mod_name.startswith("qtop."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    submit = ThreadPoolExecutor.submit

    def carried_submit(pool, fn, /, *args, **kwargs):
        return submit(pool, recorder.carry(fn), *args, **kwargs)

    ThreadPoolExecutor.submit = carried_submit
    return recorder.wrap(qtop.cli.main, "cli.main", "cli")


# ----------------------------------------------------------- arithmetic


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: duration minus the union of its children's intervals}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ())
            if c["end"] > s["start"] and c["start"] < s["end"]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - union_length(clipped)
    return out


class SpanIndex:
    """Queries over the spans of one or more invocations.

    Span ids are unique within an invocation, so spans are keyed by
    (invocation, id).
    """

    def __init__(self, spans):
        self.by_key = {}
        self.by_name = {}
        self.children = {}
        groups = {}
        for s in spans:
            inv = s.get("invocation")
            self.by_key[(inv, s["id"])] = s
            self.by_name.setdefault(s["name"], []).append(s)
            self.children.setdefault((inv, s["parent"]), []).append(s)
            groups.setdefault(inv, []).append(s)
        self.self_s = {}
        for inv, group in groups.items():
            for sid, value in self_times(group).items():
                self.self_s[(inv, sid)] = value

    def named(self, name):
        return self.by_name.get(name, [])

    def calls(self, name):
        return len(self.named(name))

    def self_time(self, *names):
        return sum(self.self_s[(s.get("invocation"), s["id"])]
                   for name in names for s in self.named(name))

    def inclusive(self, name):
        """Summed durations of the spans of ``name`` not nested in another of them."""
        return sum(s["end"] - s["start"] for s in self.named(name)
                   if not self.has_ancestor(s, name))

    def has_ancestor(self, span, name):
        inv = span.get("invocation")
        parent = span["parent"]
        while parent is not None:
            up = self.by_key[(inv, parent)]
            if up["name"] == name:
                return True
            parent = up["parent"]
        return False

    def children_of(self, span):
        return self.children.get((span.get("invocation"), span["id"]), [])

    def attr_max(self, name, key):
        values = [s["attrs"][key] for s in self.named(name) if key in s["attrs"]]
        return max(values, default=0.0)


_FACT = "wiener_hopf.canonical_factorize"
_DET = ("wiener_hopf.certify_invertible", "wiener_hopf.winding_of_det")


def _det_evals(ix):
    """Spans that evaluate the 1024-point determinant: every certify_invertible,
    plus every winding_of_det that did not delegate to certify_invertible."""
    certify = "wiener_hopf.certify_invertible"
    bare = [s for s in ix.named("wiener_hopf.winding_of_det")
            if not any(c["name"] == certify for c in ix.children_of(s))]
    return ix.named(certify) + bare


def _det_evals_per_factorization(ix):
    facts = ix.calls(_FACT)
    inside = [s for s in _det_evals(ix) if ix.has_ancestor(s, _FACT)]
    return len(inside) / facts if facts else 0.0


def _cache_hit_frac(ix):
    lookups = ix.calls("extension.factor_at")
    if not lookups:
        return 0.0
    misses = [s for s in ix.named(_FACT) if ix.has_ancestor(s, "extension.factor_at")]
    return 1.0 - len(misses) / lookups


def _eigh_dim(ix):
    return int(ix.attr_max("operators.assemble", "rows"))


def _main_coverage(ix):
    covered = total = 0.0
    for main in ix.named("cli.main"):
        kids = [(c["start"], c["end"]) for c in ix.children_of(main)]
        covered += union_length(kids)
        total += main["end"] - main["start"]
    return covered / total if total else 0.0


# name -> (unit, span names (or "span:attrs") it needs, value from a SpanIndex).
# Every "_s" metric is a self time except extension.build_s and
# operators.certify_s, which include their children (invariants.calibrate_s
# has no traced children, so the two readings agree).
LAYER_METRICS = {
    "symbols.slice_calls": ("count", ["symbols.slice"], lambda ix: ix.calls("symbols.slice")),
    "symbols.slice_s": ("s", ["symbols.slice"], lambda ix: ix.self_time("symbols.slice")),
    "wiener_hopf.factorize_calls": ("count", [_FACT], lambda ix: ix.calls(_FACT)),
    "wiener_hopf.factorize_s": ("s", [_FACT], lambda ix: ix.self_time(_FACT)),
    "wiener_hopf.det_calls": ("count", list(_DET), lambda ix: len(_det_evals(ix))),
    "wiener_hopf.det_s": ("s", list(_DET), lambda ix: ix.self_time(*_DET)),
    "wiener_hopf.det_evals_per_factorization": ("ratio", [_FACT, *_DET],
                                                _det_evals_per_factorization),
    "wiener_hopf.kernel_dim_calls": ("count", ["wiener_hopf.toeplitz_kernel_dim"],
                                     lambda ix: ix.calls("wiener_hopf.toeplitz_kernel_dim")),
    "wiener_hopf.kernel_dim_s": ("s", ["wiener_hopf.toeplitz_kernel_dim"],
                                 lambda ix: ix.self_time("wiener_hopf.toeplitz_kernel_dim")),
    "wiener_hopf.partial_indices_calls": ("count", ["wiener_hopf.partial_indices"],
                                          lambda ix: ix.calls("wiener_hopf.partial_indices")),
    "wiener_hopf.truncation_max": ("count", [_FACT, f"{_FACT}:attrs"],
                                   lambda ix: ix.attr_max(_FACT, "truncation")),
    "wiener_hopf.residual_max": ("ratio", [_FACT, f"{_FACT}:attrs"],
                                 lambda ix: ix.attr_max(_FACT, "residual")),
    "wiener_hopf.condition_max": ("ratio", [_FACT, f"{_FACT}:attrs"],
                                  lambda ix: ix.attr_max(_FACT, "condition")),
    "extension.build_s": ("s", ["extension.build_extended"],
                          lambda ix: ix.inclusive("extension.build_extended")),
    "extension.build_self_s": ("s", ["extension.build_extended"],
                               lambda ix: ix.self_time("extension.build_extended")),
    "extension.chart_grid_self_s": ("s", ["extension.chart_grid"],
                                    lambda ix: ix.self_time("extension.chart_grid")),
    "extension.factor_at_calls": ("count", ["extension.factor_at"],
                                  lambda ix: ix.calls("extension.factor_at")),
    "extension.cache_hit_frac": ("ratio", ["extension.factor_at", _FACT], _cache_hit_frac),
    "extension.seam_residual_max": ("ratio", ["extension.build_extended",
                                              "extension.build_extended:attrs"],
                                    lambda ix: ix.attr_max("extension.build_extended",
                                                           "seam_residual")),
    "invariants.calibrate_calls": ("count", ["invariants.calibrate_orientation"],
                                   lambda ix: ix.calls("invariants.calibrate_orientation")),
    "invariants.calibrate_s": ("s", ["invariants.calibrate_orientation"],
                               lambda ix: ix.inclusive("invariants.calibrate_orientation")),
    "invariants.w3_calls": ("count", ["invariants.w3"], lambda ix: ix.calls("invariants.w3")),
    "invariants.w3_self_s": ("s", ["invariants.w3"], lambda ix: ix.self_time("invariants.w3")),
    "invariants.w3_residual_max": ("ratio", ["invariants.w3", "invariants.w3:attrs"],
                                   lambda ix: ix.attr_max("invariants.w3", "residual")),
    "operators.kernel_dim_calls": ("count", ["operators.kernel_dim"],
                                   lambda ix: ix.calls("operators.kernel_dim")),
    "operators.kernel_dim_s": ("s", ["operators.kernel_dim"],
                               lambda ix: ix.self_time("operators.kernel_dim")),
    "operators.svd_rows_max": ("count", ["operators.kernel_dim", "operators.kernel_dim:attrs"],
                               lambda ix: ix.attr_max("operators.kernel_dim", "rows")),
    "operators.certify_s": ("s", ["operators.certify_fredholm"],
                            lambda ix: ix.inclusive("operators.certify_fredholm")),
    "operators.corner_self_s": ("s", ["operators.corner_spectrum"],
                                lambda ix: ix.self_time("operators.corner_spectrum")),
    "operators.eigh_dim_max": ("count", ["operators.assemble", "operators.assemble:attrs"],
                               _eigh_dim),
    "operators.dense_bytes_max": ("B", ["operators.assemble", "operators.assemble:attrs"],
                                  lambda ix: 16 * _eigh_dim(ix) ** 2),
    "operators.assemble_calls": ("count", ["operators.assemble"],
                                 lambda ix: ix.calls("operators.assemble")),
    "operators.assemble_s": ("s", ["operators.assemble"],
                             lambda ix: ix.self_time("operators.assemble")),
    "operators.flow_self_s": ("s", ["operators.spectral_flow"],
                              lambda ix: ix.self_time("operators.spectral_flow")),
    "cli.self_s": ("s", [], lambda ix: ix.self_time("cli.main")),
    "trace.coverage": ("ratio", [], _main_coverage),
}


def layer_metrics(spans, missing):
    """{metric: value or None}; None where a needed target is missing."""
    ix = SpanIndex(spans)
    out = {}
    for name, (_unit, needs, compute) in LAYER_METRICS.items():
        out[name] = None if any(n in missing for n in needs) else compute(ix)
    return out
