"""Per-layer tracing by attribute replacement, from outside the package.

Each hook replaces one name on the module or class where its caller looks it
up (charfn imports kappa_sequence and _scaled_iter by name, so those are
wrapped in every importing module).  A wrapper counts calls, keeps a span
stack for self time (span duration minus the time of wrapped spans it
contains) and, where a metric needs it, reads the arguments or the result.
A hook whose name no longer exists is reported missing, and every metric that
depends on it is left out of the output instead of reading 0.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

VERIFY_CHECK_FUNCS = (
    "coefficient_positivity", "recurrence", "wronskian", "green_identity",
    "resolvent_identity", "sign_patterns", "two_route_second_kind",
    "kappa_monotonic", "per_term_bound", "trace_reconciliation",
    "w_factorization",
)


@dataclass
class Tracer:
    """Counts, extras and self times of one traced pass; load scales the
    raw self times to the benchmark's load-corrected seconds."""

    calls: Counter = field(default_factory=Counter)
    extra: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    maxima: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    load: float = 1.0
    _stack: list = field(default_factory=list)
    _active: Counter = field(default_factory=Counter)

    def inside(self, span: str) -> bool:
        return self._active[span] > 0

    def span(self, name: str, fn: Callable, on_return: Callable | None):
        stack, active = self._stack, self._active

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            active[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                active[name] -= 1
                self.self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                self.calls[name] += 1
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result
        return wrapper

    def counter(self, name: str, fn: Callable, on_return=None):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def generator(self, name: str, fn: Callable, on_return=None):
        calls = self.calls

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                calls[name] += 1
                yield item
        return wrapper


# -- what the wrappers read -------------------------------------------------

def _kappa(tr, args, kwargs, result):
    count = kwargs["count"] if "count" in kwargs else args[1]
    tr.extra["second_kind.kappa_terms"] += count


def _eval(tr, args, kwargs, result):
    tr.extra["charfn.eval.terms"] += result.terms_used
    tr.extra["charfn.eval.uncertified"] += not result.certified
    if tr.inside("charfn.certified_sign"):
        tr.extra["charfn.sign_rounds"] += 1


def _sign(tr, args, kwargs, result):
    tr.extra["charfn.sign_resolved"] += result[0] != 0


def _sturm(tr, args, kwargs, result):
    t, xs = args[0], args[1] if len(args) > 1 else kwargs["xs"]
    tr.extra["spectrum.sturm_pivots"] += t.size * int(np.size(xs))


def _from_source(tr, args, kwargs, result):
    tr.extra["spectrum.from_source.rows"] += result.size


def _find_spectrum(tr, args, kwargs, result):
    tr.extra["spectrum.ladder_rungs"] += len(result.ladder)
    if result.ladder:
        tr.maxima["spectrum.ladder_max_n"] = max(
            tr.maxima.get("spectrum.ladder_max_n", 0), max(result.ladder))


def _emit(tr, args, kwargs, result):
    tr.extra["cli.report_bytes"] += len(result.encode("utf-8"))


@dataclass(frozen=True)
class Hook:
    span: str
    module: str
    attr: str  # "name" or "Class.name"
    kind: str = "span"  # "span", "counter" or "generator"
    on_return: Callable | None = None


HOOKS = (
    Hook("sources.coeffs", "jacspec.sources", "ASC2Source.coeffs", "counter"),
    *(Hook("recurrence.steps", m, "_scaled_iter", "generator")
      for m in ("jacspec.recurrence", "jacspec.charfn", "jacspec.second_kind")),
    *(Hook("second_kind.kappa", m, "kappa_sequence", on_return=_kappa)
      for m in ("jacspec.charfn", "jacspec.second_kind")),
    Hook("second_kind.trace_inverse", "jacspec.second_kind", "trace_inverse"),
    Hook("charfn.eval", "jacspec.charfn", "CharFnEvaluator.eval", on_return=_eval),
    Hook("charfn.plan_terms", "jacspec.charfn", "CharFnEvaluator.plan_terms"),
    Hook("charfn.certified_sign", "jacspec.charfn",
         "CharFnEvaluator.certified_sign", on_return=_sign),
    Hook("charfn.ratio", "jacspec.cli", "charfn_ratio"),
    Hook("spectrum.sturm_counts", "jacspec.spectrum", "sturm_counts", on_return=_sturm),
    Hook("spectrum.from_source", "jacspec.spectrum",
         "TruncatedTridiagonal.from_source", on_return=_from_source),
    *(Hook("spectrum.find_spectrum", m, "find_spectrum", on_return=_find_spectrum)
      for m in ("jacspec.spectrum", "jacspec.cli", "jacspec.verify")),
    *(Hook("qseries.reference", "jacspec.cli", f)
      for f in ("spectrum_product_reference", "qbinomial_check", "qgauss_check",
                "phi1_closed_form_check", "phi1_unit_argument")),
    Hook("qseries.reference", "jacspec.verify", "w_factorization_check"),
    Hook("verify.run_suite", "jacspec.cli", "run_suite"),
    *(Hook(f"verify.{c}", "jacspec.verify", f"check_{c}") for c in VERIFY_CHECK_FUNCS),
    Hook("cli.emit_report", "jacspec.cli", "emit_report", on_return=_emit),
)


def _resolve(hook: Hook):
    """(owner, name) for a hook, or None when the name is gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


_ABSENT = object()


@contextlib.contextmanager
def installed(tracer: Tracer, hooks=HOOKS):
    """Install every hook for the duration of the block, then restore."""
    undo = []
    try:
        for hook in hooks:
            found = _resolve(hook)
            if found is None:
                tracer.missing.append(f"{hook.module}.{hook.attr}")
                continue
            owner, name = found
            own = vars(owner).get(name, _ABSENT)  # _ABSENT: inherited
            make = getattr(tracer, hook.kind)
            if isinstance(own, classmethod):
                new = classmethod(make(hook.span, own.__func__, hook.on_return))
            else:
                new = make(hook.span, getattr(owner, name), hook.on_return)
            undo.append((owner, name, own))
            setattr(owner, name, new)
        yield tracer
    finally:
        for owner, name, own in reversed(undo):
            if own is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, own)


# -- per-layer metrics ------------------------------------------------------

@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    spans: tuple[str, ...]
    value: Callable[[Tracer], float]
    timed: bool = False  # self times are medians over traced passes


def _calls(span):
    return lambda tr: tr.calls[span]


def _extra(key):
    return lambda tr: tr.extra[key]


def _self(span):
    return lambda tr: float(tr.self_s[span]) * tr.load


def _ratio(num, den):
    return lambda tr: num(tr) / den(tr) if den(tr) else 0.0


def _count(name, span, value=None, unit="count"):
    return Metric(name, unit, (span,), value or _calls(span))


def _time(name, span):
    return Metric(name, "s", (span,), _self(span), timed=True)


METRICS = (
    _count("sources.coeffs.calls", "sources.coeffs"),
    _count("recurrence.steps", "recurrence.steps"),
    Metric("recurrence.steps_per_f_eval", "steps/eval",
           ("recurrence.steps", "charfn.eval"),
           _ratio(_calls("recurrence.steps"), _calls("charfn.eval"))),
    _count("second_kind.kappa_builds", "second_kind.kappa"),
    _count("second_kind.kappa_terms", "second_kind.kappa",
           _extra("second_kind.kappa_terms")),
    _time("second_kind.kappa.self_s", "second_kind.kappa"),
    _time("second_kind.trace_inverse.self_s", "second_kind.trace_inverse"),
    _count("charfn.f_evals", "charfn.eval"),
    _time("charfn.eval.self_s", "charfn.eval"),
    _count("charfn.eval.terms", "charfn.eval", _extra("charfn.eval.terms")),
    _count("charfn.eval.uncertified", "charfn.eval", _extra("charfn.eval.uncertified")),
    _count("charfn.plan_terms.calls", "charfn.plan_terms"),
    _time("charfn.plan_terms.self_s", "charfn.plan_terms"),
    _count("charfn.sign_calls", "charfn.certified_sign"),
    Metric("charfn.sign_rounds", "count", ("charfn.certified_sign", "charfn.eval"),
           _extra("charfn.sign_rounds")),
    Metric("charfn.sign_resolved_ratio", "resolved/round",
           ("charfn.certified_sign", "charfn.eval"),
           _ratio(_extra("charfn.sign_resolved"), _extra("charfn.sign_rounds"))),
    _time("charfn.ratio.self_s", "charfn.ratio"),
    _count("spectrum.sturm_counts.calls", "spectrum.sturm_counts"),
    _count("spectrum.sturm_pivots", "spectrum.sturm_counts",
           _extra("spectrum.sturm_pivots")),
    _time("spectrum.sturm_counts.self_s", "spectrum.sturm_counts"),
    _count("spectrum.from_source.rows", "spectrum.from_source",
           _extra("spectrum.from_source.rows"), unit="rows"),
    _time("spectrum.from_source.self_s", "spectrum.from_source"),
    _count("spectrum.ladder_rungs", "spectrum.find_spectrum",
           _extra("spectrum.ladder_rungs")),
    _count("spectrum.ladder_max_n", "spectrum.find_spectrum",
           lambda tr: tr.maxima.get("spectrum.ladder_max_n", 0), unit="rows"),
    _time("spectrum.find_spectrum.self_s", "spectrum.find_spectrum"),
    _count("qseries.reference.calls", "qseries.reference"),
    _time("qseries.reference.self_s", "qseries.reference"),
    _time("verify.run_suite.self_s", "verify.run_suite"),
    *(_time(f"verify.{c}.self_s", f"verify.{c}") for c in VERIFY_CHECK_FUNCS),
    _time("cli.emit_report.self_s", "cli.emit_report"),
    _count("cli.report_bytes", "cli.emit_report", _extra("cli.report_bytes"),
           unit="bytes"),
)


def missing_spans(tracer: Tracer, hooks=HOOKS) -> set[str]:
    """Spans with at least one hook whose name no longer exists."""
    gone = set(tracer.missing)
    return {h.span for h in hooks if f"{h.module}.{h.attr}" in gone}


def layer_metrics(tracers: list[Tracer], hooks=HOOKS):
    """Per-layer metrics over traced passes: counts from the first pass, self
    times as the median over passes.  Returns (metrics, warnings)."""
    first = tracers[0]
    gone = missing_spans(first, hooks)
    out, warnings = {}, []
    for m in METRICS:
        lost = sorted(set(m.spans) & gone)
        if lost:
            warnings.append(f"{m.name} missing: hook for {', '.join(lost)} not found")
            continue
        if m.timed:
            value = statistics.median(m.value(tr) for tr in tracers)
        else:
            value = m.value(first)
            if any(m.value(tr) != value for tr in tracers[1:]):
                warnings.append(f"{m.name} differs between traced passes")
        out[m.name] = {"value": value, "unit": m.unit}
    return out, warnings
