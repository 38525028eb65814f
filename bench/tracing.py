"""Span tracing of petalmap's layers, from outside the package.

`Tracer.install` replaces each layer function listed in `LAYER_FUNCTIONS`
with a timing wrapper in every ``petalmap`` module namespace that binds the
same function object, because `verify` and `cli` import names directly.  A
listed name the package no longer has is skipped and reported in
`Tracer.missing`, so deleting a helper does not break the benchmark.

Spans are kept in memory as ``[group, start, end, parent, op, work, raised]``
lists and reduced to per-layer metrics by `layer_metrics` after the run.
``work`` is the number of points passed in (for the quadrature, integrand
calls); ``raised`` is 1 when the call ended in an exception.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

EVALUATE = "maps.evaluate"
DERIVATIVES = "maps.derivatives"
INVERT = "maps.invert_map"
QUADRATURE = "numerics.singular_endpoint_quadrature"
CONFORMALITY = "verify.conformality_check"

# (module, function, metric group, (index, name) of the argument holding the points)
LAYER_FUNCTIONS = (
    ("special_functions", "hyp2f1_values", "special_functions.hyp2f1_values", (3, "t")),
    ("special_functions", "_gamma_quotient", "special_functions.gamma_quotient", None),
    ("maps", "evaluate_map", EVALUATE, (1, "w")),
    ("maps", "_values_on_sheet", EVALUATE, (1, "pts")),
    # the leaf evaluators are called directly by the one-petal Wronskian probe
    ("maps", "_one_petal_values", EVALUATE, (1, "w")),
    ("maps", "_two_petal_values", EVALUATE, (1, "w")),
    ("maps", "map_derivative", DERIVATIVES, (1, "w")),
    ("maps", "_tangential_derivatives", DERIVATIVES, (1, "pts")),
    ("maps", "_arc_derivatives", DERIVATIVES, (1, "pts")),
    ("maps", "invert_map", INVERT, None),
    ("maps", "boundary_trace", "maps.boundary_trace", None),
    ("maps", "laurent_coefficients", "maps.laurent_coefficients", None),
    ("numerics", "singular_endpoint_quadrature", QUADRATURE, None),
    ("numerics", "winding_number", "numerics.winding_number", None),
    ("numerics", "fit_power_law", "numerics.fit_power_law", None),
    ("verify", "run_standard_checks", "verify.run_standard_checks", None),
    ("verify", "ode_residual", "verify.ode_residual", None),
    ("verify", "estimate_A", "verify.estimate_A", None),
    ("verify", "dynamical_residual", "verify.dynamical_residual", None),
    ("verify", "darcy_check", "verify.darcy_check", None),
    ("verify", "conformality_check", CONFORMALITY, None),
    ("verify", "corner_exponent", "verify.corner_exponent", None),
    ("verify", "integral_equation_residual", "verify.integral_equation_residual", None),
    ("verify", "petal_width", "verify.petal_width", None),
    ("verify", "sweep", "verify.sweep", None),
    ("verify", "m_plus_samples", "verify.m_plus_samples", None),
    ("verify", "harmonic_moment", "verify.harmonic_moment", None),
    ("verify", "harmonic_moment_area", "verify.harmonic_moment_area", None),
    ("cli", "main", "cli.main", None),
)

# (metric name, unit); every metric is per attempted item unless its unit says otherwise
PER_LAYER_METRICS = (
    ("special_functions.hyp2f1_values.calls", "calls/item"),
    ("special_functions.hyp2f1_values.points", "points/item"),
    ("special_functions.hyp2f1_values.points_per_call", "points/call"),
    ("special_functions.hyp2f1_values.self_s", "s/item"),
    ("special_functions.gamma_quotient.calls", "calls/item"),
    ("maps.evaluate.calls", "calls/item"),
    ("maps.evaluate.points", "points/item"),
    ("maps.evaluate.self_s", "s/item"),
    ("maps.derivatives.calls", "calls/item"),
    ("maps.derivatives.points", "points/item"),
    ("maps.derivatives.self_s", "s/item"),
    ("maps.derivatives.evals_per_point", "evals/point"),
    ("maps.invert_map.calls", "calls/item"),
    ("maps.invert_map.self_s", "s/item"),
    ("maps.invert_map.evals_per_call", "evals/call"),
    ("maps.boundary_trace.self_s", "s/item"),
    ("maps.laurent_coefficients.self_s", "s/item"),
    ("numerics.singular_endpoint_quadrature.calls", "calls/item"),
    ("numerics.singular_endpoint_quadrature.integrand_evals", "evals/item"),
    ("numerics.singular_endpoint_quadrature.self_s", "s/item"),
    ("numerics.winding_number.calls", "calls/item"),
    ("numerics.winding_number.self_s", "s/item"),
    ("numerics.fit_power_law.self_s", "s/item"),
    ("verify.run_standard_checks.self_s", "s/item"),
    ("verify.ode_residual.self_s", "s/item"),
    ("verify.estimate_A.self_s", "s/item"),
    ("verify.dynamical_residual.self_s", "s/item"),
    ("verify.darcy_check.self_s", "s/item"),
    ("verify.corner_exponent.self_s", "s/item"),
    ("verify.integral_equation_residual.self_s", "s/item"),
    ("verify.petal_width.self_s", "s/item"),
    ("verify.sweep.self_s", "s/item"),
    ("verify.m_plus_samples.self_s", "s/item"),
    ("verify.harmonic_moment.self_s", "s/item"),
    ("verify.harmonic_moment_area.self_s", "s/item"),
    ("verify.conformality_check.self_s", "s/item"),
    ("verify.conformality_check.ring_points", "points/item"),
    ("cli.main.self_s", "s/item"),
    ("trace.overhead_frac", "1"),
)


class Tracer:
    """Collects spans from wrapped layer functions of one package."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, group: str, fn, points_arg=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        counts_integrand = group == QUADRATURE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [group, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0, 0]
            if points_arg is not None:
                index, name = points_arg
                rec[5] = int(np.size(args[index] if len(args) > index else kwargs[name]))
            if counts_integrand:
                inner = args[0]

                def integrand(x):
                    rec[5] += 1
                    return inner(x)

                args = (integrand,) + args[1:]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[6] = 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            return result

        return traced

    def install(self, package: str = "petalmap", layer_functions=LAYER_FUNCTIONS):
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for module_name, fn_name, group, points_arg in layer_functions:
            module = sys.modules.get("%s.%s" % (package, module_name))
            fn = getattr(module, fn_name, None)
            if fn is None:
                self.missing.append("%s.%s" % (module_name, fn_name))
                continue
            wrapper = self.wrap(group, fn, points_arg)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapper)
                        self._patches.append((m, name, fn))

    def uninstall(self):
        for module, name, fn in reversed(self._patches):
            setattr(module, name, fn)
        self._patches.clear()

    def write(self, path):
        """Spans as CSV, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("group,start_s,end_s,parent,op,work,raised\n")
            for group, start, end, parent, op, work, raised in self.spans:
                fh.write(
                    "%s,%.9f,%.9f,%d,%d,%d,%d\n"
                    % (group, start - t0, end - t0, parent, op, work, raised)
                )


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one wrapped call over a plain call, in seconds."""

    def plain(a, b):
        return a

    traced = Tracer().wrap("calibration", plain, (1, "b"))
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        plain(0, 0)
    t1 = clock()
    for _ in range(calls):
        traced(0, 0)
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def _ancestor(spans, i: int, group: str) -> int:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == group:
            return p
        p = spans[p][3]
    return -1


def reduce_spans(spans):
    """Totals per group: self and inclusive time, outermost calls and work.

    A span nested in another span of its own group (say `_arc_derivatives`
    under `map_derivative`) adds self time but no call, work or inclusive
    time, so each request is counted once.  Evaluations per derivative point
    count only derivative calls that returned, since a call that raised
    stopped part-way through its stencil.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    totals: dict[str, dict] = {}
    derivative_evals = derivative_points = invert_evals = ring_points = 0
    for i, (group, start, end, _parent, _op, work, raised) in enumerate(spans):
        t = totals.setdefault(group, {"self_s": 0.0, "inclusive_s": 0.0, "calls": 0, "work": 0})
        t["self_s"] += (end - start) - child[i]
        if _ancestor(spans, i, group) >= 0:
            continue
        t["calls"] += 1
        t["work"] += work
        t["inclusive_s"] += end - start
        if group == EVALUATE:
            d = _ancestor(spans, i, DERIVATIVES)
            while d >= 0 and _ancestor(spans, d, DERIVATIVES) >= 0:
                d = _ancestor(spans, d, DERIVATIVES)
            if d >= 0 and not spans[d][6]:
                derivative_evals += work
            if _ancestor(spans, i, INVERT) >= 0:
                invert_evals += 1
        elif group == DERIVATIVES:
            if not raised:
                derivative_points += work
            if _ancestor(spans, i, CONFORMALITY) >= 0:
                ring_points += work
    return totals, {
        "derivative_evals": derivative_evals,
        "derivative_points": derivative_points,
        "invert_evals": invert_evals,
        "ring_points": ring_points,
    }


def layer_metrics(spans, items: int, traced_s: float, cost_per_span_s: float):
    """Per-layer metrics of one traced run, per attempted item.

    Returns ({metric: value}, {group: inclusive seconds per item}).
    """
    totals, extra = reduce_spans(spans)
    empty = {"self_s": 0.0, "inclusive_s": 0.0, "calls": 0, "work": 0}

    def total(group, key):
        return totals.get(group, empty)[key]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    integrand_evals = total(QUADRATURE, "work")
    for name, _unit in PER_LAYER_METRICS:
        group, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = ratio(total(group, "self_s"), items)
        elif field == "calls":
            values[name] = ratio(total(group, "calls"), items)
        elif field in ("points", "integrand_evals"):
            values[name] = ratio(total(group, "work"), items)
    values["special_functions.hyp2f1_values.points_per_call"] = ratio(
        total("special_functions.hyp2f1_values", "work"),
        total("special_functions.hyp2f1_values", "calls"),
    )
    values["maps.derivatives.evals_per_point"] = ratio(
        extra["derivative_evals"], extra["derivative_points"]
    )
    values["maps.invert_map.evals_per_call"] = ratio(extra["invert_evals"], total(INVERT, "calls"))
    values[CONFORMALITY + ".ring_points"] = ratio(extra["ring_points"], items)
    # the integrand counter costs about one wrapped call per evaluation
    overhead = (len(spans) + integrand_evals) * cost_per_span_s
    values["trace.overhead_frac"] = ratio(overhead, traced_s)
    inclusive = {g: ratio(t["inclusive_s"], items) for g, t in sorted(totals.items())}
    return values, inclusive
