"""Per-layer tracing of heatjets from outside the package.

``Tracer.install`` replaces the public functions and methods listed in
``TARGETS`` with wrappers that keep, per span name, the number of calls, the
inclusive time (outermost call of a span only, so recursion is not counted
twice) and the self time (duration minus the time of wrapped callees, kept
with a stack).  Hooks add deterministic operation counts at the same
boundaries.  Everything stays in memory until ``layer_metrics`` is read
once at the end; ``uninstall`` puts every original attribute back.

A function that other heatjets modules imported by name is replaced in each
of them, so calls through any binding are seen.
"""

from __future__ import annotations

import importlib
import sys
import time
from bisect import bisect_right
from collections import Counter


def _jet_degrees(jet):
    return sorted(a + b for a, b in jet.coeffs)


def _count_jet_product(tracer, args, result):
    """Pairs attempted and pairs within the degree cap, from each operand's
    degree histogram; the cap is `_mul_capped`'s last argument."""
    left, right, cap = args
    c = tracer.counters
    c["jets.mul_pairs"] += len(left.coeffs) * len(right.coeffs)
    right_degrees = _jet_degrees(right)
    c["jets.mul_kept"] += sum(bisect_right(right_degrees, cap - d)
                              for d in _jet_degrees(left))
    _count_jet_size(tracer, args, result)


def _count_jet_size(tracer, args, result):
    c = tracer.counters
    c["jets.peak_terms"] = max(c["jets.peak_terms"], len(result.coeffs))


def _count_inverse_order(tracer, args, result):
    c = tracer.counters
    c["laplace.inverse_order_max"] = max(c["laplace.inverse_order_max"],
                                         args[1])


def _count_rhopoly_product(tracer, args, result):
    left, right = args
    width = len(right.num) if hasattr(right, "num") else 1
    tracer.counters["rhopoly.mul_pairs"] += len(left.num) * width


def _count_rhopoly_sum(tracer, args, result):
    # Every caller passes a list or tuple, so the items are still there.
    tracer.counters["rhopoly.sum_terms_in"] += sum(len(p.num) for p in args[1])


def _count_result_form(tracer, args, result):
    poly = getattr(result.form, "poly", None)
    if poly is not None:
        c = tracer.counters
        c["rhopoly.result_terms"] += len(poly.num)
        c["rhopoly.result_den"] = max(c["rhopoly.result_den"], poly.den)


#: (span, module, attribute path, hook).  A dotted path names a class
#: attribute; anything else a module-level function.
TARGETS = (
    ("cli.main", "heatjets.cli", "main", None),
    ("metrics.parse", "heatjets.metrics", "load_metric_spec", None),
    ("metrics.parse", "heatjets.metrics", "parse_metric_spec", None),
    ("metrics.expand", "heatjets.metrics", "expand_metric", None),
    ("heatinv.route", "heatjets.heatinv", "symbolic_heat_invariant", None),
    ("heatinv.route", "heatjets.heatinv", "heat_invariant",
     _count_result_form),
    ("heatinv.route", "heatjets.heatinv", "heat_invariant_via_frozen",
     _count_result_form),
    ("heatinv.constant", "heatjets.heatinv", "heat_constant", None),
    ("heatinv.render", "heatjets.heatinv", "closed_form_to_json", None),
    ("heatinv.render", "heatjets.heatinv", "render_closed_form", None),
    ("heatinv.render", "heatjets.heatinv", "render_pi_scaled", None),
    ("laplace.apply", "heatjets.laplace", "ConformalLaplacian.apply", None),
    ("laplace.apply", "heatjets.laplace", "FrozenLaplacian.apply", None),
    ("laplace.inverse", "heatjets.laplace", "ConformalLaplacian.inverse_factor",
     _count_inverse_order),
    ("laplace.curvature_jet", "heatjets.laplace", "gaussian_curvature_jet",
     None),
    ("jets.mul", "heatjets.jets", "Jet2D._mul_capped", _count_jet_product),
    ("jets.add", "heatjets.jets", "Jet2D.__add__", _count_jet_size),
    ("jets.diff", "heatjets.jets", "Jet2D.diff", _count_jet_size),
    ("jets.inverse", "heatjets.jets", "Jet2D.inverse", _count_jet_size),
    ("jets.log", "heatjets.jets", "Jet2D.log_nonconstant", _count_jet_size),
    ("rhopoly.mul", "heatjets.rhopoly", "RhoPoly.__mul__",
     _count_rhopoly_product),
    ("rhopoly.mul", "heatjets.rhopoly", "RhoPoly.__rmul__",
     _count_rhopoly_product),
    ("rhopoly.sum", "heatjets.rhopoly", "RhoPoly.sum", _count_rhopoly_sum),
    ("curvature.frame", "heatjets.curvature", "curvature_frame", None),
    ("curvature.route", "heatjets.curvature",
     "heat_invariant_curvature_form", None),
)


class Tracer:
    """Wrappers plus their in-memory aggregates; one per traced request."""

    def __init__(self):
        self.spans = {}          # span -> [calls, inclusive s, self s]
        self.counters = Counter()
        self._stack = []         # child time of each open span
        self._depth = Counter()  # open calls per span
        self._saved = []         # (owner, name, original) in install order

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for span, module_name, path, hook in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, name = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[name]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(span, original.__func__,
                                                     hook))
                else:
                    wrapped = self._wrap(span, original, hook)
                self._replace(cls, name, original, wrapped)
            else:
                original = getattr(module, path)
                wrapped = self._wrap(span, original, hook)
                for owner in _heatjets_modules():
                    if owner.__dict__.get(path) is original:
                        self._replace(owner, path, original, wrapped)

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _replace(self, owner, name, original, wrapped):
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapped)

    def _wrap(self, span, fn, hook):
        stats = self.spans.setdefault(span, [0, 0.0, 0.0])
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            outer = not depth[span]
            depth[span] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[span] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                if outer:
                    stats[1] += elapsed
                stats[2] += elapsed - children[0]
            if hook is not None and result is not NotImplemented:
                hook_start = clock()
                hook(tracer, args, result)
                if stack:  # counting is overhead, not the caller's self time
                    stack[-1][0] += clock() - hook_start
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def layer_metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_s, by name."""
        def calls(span):
            return self.spans.get(span, (0, 0.0, 0.0))[0]

        def inclusive(span):
            return self.spans.get(span, (0, 0.0, 0.0))[1]

        def own(span):
            return self.spans.get(span, (0, 0.0, 0.0))[2]

        c = self.counters
        pairs = c["jets.mul_pairs"]
        return {
            "laplace.apply_calls": calls("laplace.apply"),
            "laplace.apply_self_s": own("laplace.apply"),
            "heatinv.route_self_s": own("heatinv.route"),
            "rhopoly.mul_calls": calls("rhopoly.mul"),
            "rhopoly.mul_pairs": c["rhopoly.mul_pairs"],
            "rhopoly.mul_self_s": own("rhopoly.mul"),
            "rhopoly.sum_calls": calls("rhopoly.sum"),
            "rhopoly.sum_terms_in": c["rhopoly.sum_terms_in"],
            "rhopoly.sum_self_s": own("rhopoly.sum"),
            "rhopoly.result_terms": c["rhopoly.result_terms"],
            "rhopoly.result_den": c["rhopoly.result_den"],
            "jets.mul_calls": calls("jets.mul"),
            "jets.mul_pairs": pairs,
            "jets.mul_kept_ratio": c["jets.mul_kept"] / pairs if pairs else 0.0,
            "jets.mul_self_s": own("jets.mul"),
            "jets.peak_terms": c["jets.peak_terms"],
            "jets.add_self_s": own("jets.add"),
            "jets.diff_self_s": own("jets.diff"),
            "laplace.inverse_calls": calls("laplace.inverse"),
            "laplace.inverse_s": inclusive("laplace.inverse"),
            "laplace.inverse_order_max": c["laplace.inverse_order_max"],
            "jets.inverse_calls": calls("jets.inverse"),
            "jets.inverse_s": inclusive("jets.inverse"),
            "metrics.expand_s": inclusive("metrics.expand"),
            "laplace.curvature_jet_calls": calls("laplace.curvature_jet"),
            "laplace.curvature_jet_s": inclusive("laplace.curvature_jet"),
            "jets.log_s": inclusive("jets.log"),
            "curvature.frame_calls": calls("curvature.frame"),
            "curvature.route_self_s": own("curvature.route"),
            "heatinv.constant_calls": calls("heatinv.constant"),
            "heatinv.constant_s": inclusive("heatinv.constant"),
            "metrics.parse_s": inclusive("metrics.parse"),
            "heatinv.render_s": inclusive("heatinv.render"),
            "cli.self_s": own("cli.main"),
        }


def _heatjets_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "heatjets"
                                  or name.startswith("heatjets."))]
