"""Span tracer that wraps cmharmonic's public layer entry points from outside.

Only the traced run installs it.  Each wrapped call records a span
``[name, start, end, parent, call]`` in memory: ``parent`` is the index of
the enclosing span (or -1) and ``call`` the benchmark operation it belongs
to, so a layer's self time is its span minus the spans nested inside it.
Counters for work done (rule points, kernel terms, quadrature abscissae)
are taken at the same boundaries.  While the tracer is paused, wrapped
calls run untraced and uncounted.  Nothing is written out until the run ends.
"""

import contextlib
import functools
import sys
import time
from collections import Counter

# (owner path, attribute, span name); a span's layer is its name's prefix.
# Owner paths are resolved after cmharmonic is imported; module-level
# functions are replaced in every cmharmonic module that bound them by name.
WRAP_POINTS = [
    ("measures.Measure", "__init__", "measures.construct"),
    ("measures.Measure", "integrate", "measures.integrate"),
    ("measures.Measure", "integrate_below", "measures.integrate_below"),
    ("measures.Measure", "moment", "measures.moment"),
    ("quadrature", "adaptive_quad", "quadrature.adaptive_quad"),
    ("quadrature", "composite_rule", "quadrature.composite_rule"),
    ("transforms.CauchyTransform", "eval", "transforms.eval"),
    ("transforms.CauchyTransform", "values", "transforms.values"),
    ("transforms.CauchyTransform", "limit_at_one", "transforms.limit_at_one"),
    ("transforms.ShiftedCauchyTransform", "deriv", "transforms.deriv"),
    ("transforms.ShiftedCauchyTransform", "derivs", "transforms.derivs"),
    ("transforms.ShiftedCauchyTransform", "deriv2s", "transforms.deriv2s"),
    ("transforms", "check_membership", "transforms.check_membership"),
    ("harmonic", "certify_qc_grid", "harmonic.certify_qc_grid"),
    ("harmonic", "check_modulus_bound", "harmonic.check_modulus_bound"),
    ("harmonic", "check_partial_signs", "harmonic.check_partial_signs"),
    ("harmonic", "derivative_ratio_sup", "harmonic.derivative_ratio_sup"),
    ("harmonic", "harnack_ratio_bound", "harmonic.harnack_ratio_bound"),
    ("harmonic", "certify_qc_boundary_limit", "harmonic.certify_qc_boundary_limit"),
    ("harmonic", "density_ratio_condition", "harmonic.density_ratio_condition"),
    ("special", "certify_hypergeom_map", "special.certify_hypergeom_map"),
    ("special", "certify_polylog_map", "special.certify_polylog_map"),
    ("special", "shifted_2f1_deriv_limit_quad", "special.shifted_2f1_deriv_limit_quad"),
    ("special", "zeta", "special.zeta"),
    ("special", "hyp2f1", "special.hyp2f1"),
    ("moments", "is_completely_monotone", "moments.cm_scan"),
    ("moments.DifferenceTable", "from_sequence", "moments.difference_table"),
]

KERNEL_BYTES_PER_TERM = 16  # one complex128 kernel entry materialized per term

_INCONCLUSIVE = ("inconclusive", "unresolved")


def _resolve(root, path):
    obj = root
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _rule_points(mu):
    return len(mu._rule[0])


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self.call = -1
        self.enabled = True

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.call])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    @contextlib.contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".raised"] += 1
                raise
            finally:
                tracer.end()
            tracer.counts[name + ".calls"] += 1
            if after is not None:
                after(out, args, kwargs)
            status = getattr(out, "status", None)
            if status in _INCONCLUSIVE or getattr(out, "inconclusive", False):
                tracer.counts[name.split(".")[0] + ".inconclusive"] += 1
            return out

        return wrapper

    def install(self, cmharmonic):
        """Wrap every entry point in WRAP_POINTS for the rest of the process."""
        counts = self.counts

        def rule_after(out, args, kwargs):
            counts["measures.rule_points"] += len(out[0])

        def kernel_after(name):
            def after(out, args, kwargs):
                counts[name + ".terms"] += out.size * _rule_points(args[0].mu)

            return after

        def grid_arg(args, kwargs):
            return kwargs.get("grid", args[1] if len(args) > 1 else None) or cmharmonic.GridSpec()

        def partial_signs_after(out, args, kwargs):
            f, grid = args[0], grid_arg(args, kwargs)
            nodes = 2 * grid.nx * grid.ny  # the half-plane grid and its mirror image
            counts["harmonic.partial_signs_terms"] += nodes * (_rule_points(f.h.mu) + _rule_points(f.g.mu))

        def ratio_sup_after(out, args, kwargs):
            h, grid = args[0], grid_arg(args, kwargs)
            nt = kwargs.get("nt", args[2] if len(args) > 2 else 11)
            counts["harmonic.ratio_sup_terms"] += grid.nr * grid.ntheta * nt * _rule_points(h.mu)

        def table_after(out, args, kwargs):
            counts["moments.table_entries"] += sum(len(row) for row in out.rows)

        extra = {
            "transforms.values": kernel_after("transforms.values"),
            "transforms.derivs": kernel_after("transforms.derivs"),
            "transforms.deriv2s": kernel_after("transforms.deriv2s"),
            "harmonic.check_partial_signs": partial_signs_after,
            "harmonic.derivative_ratio_sup": ratio_sup_after,
            "moments.difference_table": table_after,
        }
        modules = [m for key, m in sys.modules.items() if key == "cmharmonic" or key.startswith("cmharmonic.")]
        for owner_path, attr, name in WRAP_POINTS:
            owner = _resolve(cmharmonic, owner_path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            orig = raw.__func__ if isinstance(raw, classmethod) else raw
            if name == "quadrature.adaptive_quad":
                wrapped = self._wrap(self._counting_quad(orig), name, None)
            else:
                wrapped = self._wrap(orig, name, extra.get(name))
            if isinstance(owner, type):
                setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            else:
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)
        # Measure._rule is a cached_property: wrap the function it caches
        measure_cls = _resolve(cmharmonic, "measures.Measure")
        prop = measure_cls.__dict__["_rule"]
        new_prop = type(prop)(self._wrap(prop.func, "measures.rule_build", rule_after))
        new_prop.__set_name__(measure_cls, "_rule")
        setattr(measure_cls, "_rule", new_prop)

    def _counting_quad(self, adaptive_quad):
        tracer = self

        @functools.wraps(adaptive_quad)
        def counted(f, a, b, *args, **kwargs):
            def g(x):
                if tracer.enabled:
                    tracer.counts["quadrature.adaptive_quad_evals"] += len(x)
                return f(x)

            return adaptive_quad(g, a, b, *args, **kwargs)

        return counted

    # -- output -----------------------------------------------------------------

    def state(self):
        return {"spans": self.spans, "counts": dict(self.counts)}


def layer_of(name):
    return name.split(".")[0]


def summarize(spans):
    """Per span name: [calls, inclusive s, self s]; per layer: [busy s, self s].

    A span's self time is its duration minus that of the spans directly
    inside it.  A layer is busy while any of its spans is open, so busy time
    sums only the spans with no enclosing span of the same layer.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _call in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name = {}
    layers = {}
    for i, (name, start, end, parent, _call) in enumerate(spans):
        dur = end - start
        entry = by_name.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child_time[i]
        layer = layer_of(name)
        busy_self = layers.setdefault(layer, [0.0, 0.0])
        busy_self[1] += dur - child_time[i]
        if not _inside_layer(spans, parent, layer):
            busy_self[0] += dur
    return by_name, layers


def _inside_layer(spans, parent, layer):
    while parent >= 0:
        if layer_of(spans[parent][0]) == layer:
            return True
        parent = spans[parent][3]
    return False
