"""Layer tracer, installed from outside the engine.

`install` wraps the engine's public functions and constructors in span
recorders.  A function is rebound under every name that holds it in any
`villadsen` module (`presentation_of`, for one, is imported into six), so
all callers go through the wrapper.  Constructors and `SpaceDescriptor`
equality are wrapped on the class itself.

A span is (name, start, end, id, parent id); spans nest on one stack, and
a span's self time is its duration minus that of its direct children.
Spans stay in memory until the invocation ends.  `METRICS` turns the
summed counts and self times into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import defaultdict

SPAN_LIMIT = 5_000

# module -> functions wrapped in a span named "<module>.<function>"
SPANNED = {
    "cohomology": ("presentation_of", "cup", "homogeneous_component", "pullback_class"),
    "bundles": ("line_sum", "chern", "chern_expansion_cost", "euler", "euler_nonzero",
                "pushforward_diagonal"),
    "comparison": ("obstructed_by_euler", "dominates_by_rank"),
    "type_two": ("stage_space", "cp_line", "obstruction_bundle", "trace_value",
                 "radius_of_comparison", "comparability_triple"),
    "type_one": ("top_chern_witness", "composed_projection_multiplicities"),
    "cfp": ("build_witness", "verify_upper", "verify_lower", "exact_pushed_coefficients"),
    "reports": ("validate_report", "load_schema", "canonical_json"),
}

# (metric, unit, source, key): source "calls"/"self_s" read a span,
# "count" a counter, "ratio" a counter over the calls of a span.
METRICS = [
    ("cohomology.presentation_of.calls", "count", "calls", "cohomology.presentation_of"),
    ("cohomology.presentation_of.self_s", "s", "self_s", "cohomology.presentation_of"),
    ("cohomology.GradedClass.calls", "count", "calls", "cohomology.GradedClass"),
    ("cohomology.GradedClass.self_s", "s", "self_s", "cohomology.GradedClass"),
    ("cohomology.GradedClass.terms_in", "count", "count", "cohomology.GradedClass.terms_in"),
    ("cohomology.cup.calls", "count", "calls", "cohomology.cup"),
    ("cohomology.cup.self_s", "s", "self_s", "cohomology.cup"),
    ("cohomology.cup.term_pairs", "count", "count", "cohomology.cup.term_pairs"),
    ("cohomology.cup.square_zero_ratio", "ratio", "ratio", "cohomology.cup.square_zero"),
    ("cohomology.homogeneous_component.self_s", "s", "self_s",
     "cohomology.homogeneous_component"),
    ("cohomology.pullback_class.self_s", "s", "self_s", "cohomology.pullback_class"),
    ("bundles.BundleExpr.calls", "count", "calls", "bundles.BundleExpr"),
    ("bundles.BundleExpr.self_s", "s", "self_s", "bundles.BundleExpr"),
    ("bundles.line_sum.self_s", "s", "self_s", "bundles.line_sum"),
    ("bundles.chern.calls", "count", "calls", "bundles.chern"),
    ("bundles.chern.self_s", "s", "self_s", "bundles.chern"),
    ("bundles.chern.refused", "count", "count", "bundles.chern.refused"),
    ("bundles.chern_expansion_cost.calls", "count", "calls", "bundles.chern_expansion_cost"),
    ("bundles.chern_expansion_cost.self_s", "s", "self_s", "bundles.chern_expansion_cost"),
    ("bundles.euler.self_s", "s", "self_s", "bundles.euler"),
    ("bundles.euler_nonzero.calls", "count", "calls", "bundles.euler_nonzero"),
    ("bundles.euler_nonzero.full_ratio", "ratio", "ratio", "bundles.euler_nonzero.full"),
    ("bundles.pushforward_diagonal.self_s", "s", "self_s", "bundles.pushforward_diagonal"),
    ("comparison.obstructed_by_euler.self_s", "s", "self_s",
     "comparison.obstructed_by_euler"),
    ("comparison.dominates_by_rank.self_s", "s", "self_s", "comparison.dominates_by_rank"),
    *[(f"type_two.{f}.{q}", "count" if q == "calls" else "s", q, f"type_two.{f}")
      for f in SPANNED["type_two"] for q in ("calls", "self_s")],
    ("type_one.top_chern_witness.self_s", "s", "self_s", "type_one.top_chern_witness"),
    ("type_one.composed_projection_multiplicities.self_s", "s", "self_s",
     "type_one.composed_projection_multiplicities"),
    *[(f"cfp.{f}.self_s", "s", "self_s", f"cfp.{f}") for f in SPANNED["cfp"]],
    ("reports.validate_report.self_s", "s", "self_s", "reports.validate_report"),
    ("reports.load_schema.calls", "count", "calls", "reports.load_schema"),
    ("reports.canonical_json.self_s", "s", "self_s", "reports.canonical_json"),
    ("reports.canonical_json.bytes", "B", "count", "reports.canonical_json.bytes"),
    ("spaces.SpaceDescriptor.eq_calls", "count", "calls", "spaces.SpaceDescriptor.eq"),
    ("spaces.SpaceDescriptor.eq_s", "s", "self_s", "spaces.SpaceDescriptor.eq"),
    ("cli.parse_s", "s", "self_s", "cli.parse"),
    ("cli.load_json_s", "s", "self_s", "cli.load_json"),
]


class Tracer:
    """Span stack, per-span call counts and self times, and named counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self.dropped = 0
        self._stack = []
        self._ids = itertools.count()

    def span(self, name, fn, after=None, on_error=None):
        """`fn` wrapped so that each call records a span called `name`."""
        stack, clock = self._stack, time.perf_counter
        calls, self_s, spans, ids = self.calls, self.self_s, self.spans, self._ids

        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if len(spans) < SPAN_LIMIT:
                    spans.append((name, start, end, span_id, parent))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """`fn` wrapped so that each call only bumps the counter `name`."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "spans": self.spans,
                "dropped": self.dropped}


def _rebind(modules, original, wrapper):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the engine's layers; the engine must already be imported.

    A name a later version no longer has is skipped, and its metrics read 0.
    """
    modules = [m for name, m in list(sys.modules.items())
               if name == "villadsen" or name.startswith("villadsen.")]
    engine = {name.split(".", 1)[1]: m for name, m in sys.modules.items()
              if name.startswith("villadsen.")}
    counts = tracer.counts

    def cup_pairs(args, kwargs, result):
        counts["cohomology.cup.term_pairs"] += len(args[0].terms) * len(args[1].terms)

    def chern_refused(exc):
        if type(exc).__name__ == "GeneratorBudgetExceeded":
            counts["bundles.chern.refused"] += 1

    def euler_route(args, kwargs, result):
        if result[1] == "factorized+full":
            counts["bundles.euler_nonzero.full"] += 1

    def json_bytes(args, kwargs, result):
        counts["reports.canonical_json.bytes"] += len(result)

    hooks = {"cohomology.cup": {"after": cup_pairs},
             "bundles.chern": {"on_error": chern_refused},
             "bundles.euler_nonzero": {"after": euler_route},
             "reports.canonical_json": {"after": json_bytes}}
    for module_name, functions in SPANNED.items():
        module = engine.get(module_name)
        for function in functions:
            original = getattr(module, function, None)
            if original is None:
                continue
            name = f"{module_name}.{function}"
            _rebind(modules, original, tracer.span(name, original, **hooks.get(name, {})))

    square_zero = getattr(engine.get("cohomology"), "_cup_square_zero", None)
    if square_zero is not None:
        _rebind(modules, square_zero, tracer.counter("cohomology.cup.square_zero", square_zero))

    def terms_in(args, kwargs, result):
        terms = args[2] if len(args) > 2 else kwargs.get("terms")
        counts["cohomology.GradedClass.terms_in"] += len(terms) if terms else 0

    for module_name, cls_name, after in (("cohomology", "GradedClass", terms_in),
                                         ("bundles", "BundleExpr", None)):
        cls = getattr(engine.get(module_name), cls_name, None)
        if cls is not None:
            cls.__init__ = tracer.span(f"{module_name}.{cls_name}", cls.__init__, after)
    descriptor = getattr(engine.get("spaces"), "SpaceDescriptor", None)
    if descriptor is not None:
        descriptor.__eq__ = tracer.span("spaces.SpaceDescriptor.eq", descriptor.__eq__)

    cli = engine.get("cli")
    if cli is None:
        return
    load_json = getattr(cli, "_load_json", None)
    if load_json is not None:
        cli._load_json = tracer.span("cli.load_json", load_json)
    build_parser = getattr(cli, "build_parser", None)
    if build_parser is not None:
        def trace_parse_args(args, kwargs, parser):
            parser.parse_args = tracer.span("cli.parse", parser.parse_args)
        cli.build_parser = tracer.span("cli.parse", build_parser, after=trace_parse_args)


def layer_metrics(calls: dict, self_s: dict, counts: dict, per_pass: float,
                  time_scale: float) -> dict:
    """Per-layer metrics from summed tracer data.

    Counts and times are multiplied by `per_pass`, times also by
    `time_scale`; ratios are left alone.
    """
    out = {}
    for metric, unit, source, key in METRICS:
        if source == "calls":
            value = calls.get(key, 0) * per_pass
        elif source == "self_s":
            value = self_s.get(key, 0.0) * per_pass * time_scale
        elif source == "count":
            value = counts.get(key, 0) * per_pass
        else:
            base = calls.get(key.rsplit(".", 1)[0], 0)
            value = counts.get(key, 0) / base if base else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out
