"""Outside-in tracer: wraps the package's public functions from the outside.

Installing rebinds each traced function in every ``coxdescent`` module that
holds it under any name (``cox.saturate`` is ``groebner.saturate``), and
each traced method on its class; uninstalling puts every original back.
Nothing in the package is edited, and with no tracer installed the package
runs untouched.

Every call records a span ``[label, parent span, start, end, units]`` in
memory.  A span's self time is its duration minus the time its child spans
cover; a label's total time counts only its outermost spans, so recursion
is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time

# (label, module, attribute path).  ``groebner.reduced_gb`` and
# ``groebner.normal_form`` wrap the IdealHandle methods that the functional
# forms delegate to, so calls made through a handle count too; the class
# labels wrap ``__init__`` so ``isinstance`` keeps working.
TARGETS = [
    ("fields.FieldTower", "coxdescent.fields", "FieldTower.__init__"),
    ("rings.MultigradedRing", "coxdescent.rings", "MultigradedRing.__init__"),
    ("rings.parse", "coxdescent.rings", "MultigradedRing.parse"),
    ("rings.monomials_of_degree", "coxdescent.rings", "monomials_of_degree"),
    ("problemfile.parse_problem", "coxdescent.problemfile", "parse_problem"),
    ("groebner.reduced_gb", "coxdescent.groebner", "IdealHandle.reduced_gb"),
    ("groebner.normal_form", "coxdescent.groebner", "IdealHandle.normal_form"),
    ("groebner.saturate", "coxdescent.groebner", "saturate"),
    ("groebner.saturate_single", "coxdescent.groebner", "saturate_single"),
    ("groebner.intersect", "coxdescent.groebner", "intersect"),
    ("groebner.height", "coxdescent.groebner", "height"),
    ("cox.is_strict_ci", "coxdescent.cox", "is_strict_ci"),
    ("descent.descend", "coxdescent.descent", "descend"),
    ("descent.is_invariant_ideal", "coxdescent.descent", "is_invariant_ideal"),
    ("descent.fixed_space", "coxdescent.descent", "fixed_space"),
    ("descent.graded_piece_basis", "coxdescent.descent", "graded_piece_basis"),
    ("linalg.echelon_basis", "coxdescent.linalg", "echelon_basis"),
    ("linalg.kernel_gfp", "coxdescent.linalg", "kernel_gfp"),
    ("cli.main", "coxdescent.cli", "main"),
]
LABELS = [t[0] for t in TARGETS]


def _saturate_gens(ideal, direction):
    """Nonzero generators of the saturation direction: the singles on offer."""
    return sum(1 for g in direction.gens if not g.is_zero())


UNITS = {"groebner.saturate": _saturate_gens}


class Tracer:
    """Context manager: ``with Tracer() as t: ...`` then ``t.summary()``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._bindings = None   # [(owner, attribute, original, wrapper)]

    def _wrap(self, label, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        units = UNITS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [label, stack[-1] if stack else -1, 0.0, 0.0,
                    units(*args, **kwargs) if units else 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
        return wrapper

    def _find_bindings(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "coxdescent" or name.startswith("coxdescent."))]
        out = []
        for label, modname, path in TARGETS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                out.append((cls, attr, orig, self._wrap(label, orig)))
                continue
            orig = getattr(mod, path)
            wrapper = self._wrap(label, orig)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        out.append((m, name, orig, wrapper))
        return out

    def install(self):
        """Rebind every target; the bindings are found on the first call, so
        installing again (e.g. around each operation) is cheap."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self._bindings or []):
            setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self):
        """Per label ``calls``, ``self_s`` and ``total_s``, plus the
        saturation ratios' raw counts, as plain numbers."""
        return summarize(self.spans)

    def clear(self):
        """Forget the spans recorded so far."""
        self.spans.clear()


def summarize(spans):
    out = {label: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for label in LABELS}
    child = [0.0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child[span[1]] += span[3] - span[2]
    counts = {"saturate_gens": 0, "singles_in_saturate": 0, "intersects_in_saturate": 0}
    for i, (label, parent, t0, t1, units) in enumerate(spans):
        rec = out[label]
        rec["calls"] += 1
        rec["self_s"] += (t1 - t0) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != label:
            p = spans[p][1]
        if p < 0:
            rec["total_s"] += t1 - t0
        counts["saturate_gens"] += units
        if parent >= 0 and spans[parent][0] == "groebner.saturate":
            if label == "groebner.saturate_single":
                counts["singles_in_saturate"] += 1
            elif label == "groebner.intersect":
                counts["intersects_in_saturate"] += 1
    return {"labels": out, "counts": counts}


def merge(summaries):
    """Sum several summaries (e.g. one per CLI process)."""
    out = summarize([])
    for s in summaries:
        for label, rec in s["labels"].items():
            for k, v in rec.items():
                out["labels"][label][k] += v
        for k, v in s["counts"].items():
            out["counts"][k] += v
    return out
