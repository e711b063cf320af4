"""In-memory span tracing of the program's layers, installed from outside.

``Tracer.install`` wraps the public functions of ``segre_towers`` named in
``TRACED`` in every module namespace that binds them (so ``flag`` calling
its own import of ``pushforward_monomial`` is traced as well as a direct
call), plus the ``LaurentPoly`` and ``ResultTable`` methods.  Each call
records one span: name, start, end, parent span and job id, kept in flat
arrays until the run ends.  Counters that ratios need (term counts,
permutations walked) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("series", "tower", "flag", "cli")


def _mul_count(counts, args, kwargs, result):
    a, b = args
    if type(result).__name__ != "LaurentPoly":
        return
    pairs = len(a) * (len(b) if type(b).__name__ == "LaurentPoly" else 1)
    counts["series.mul.pairs"] += pairs
    counts["series.mul.out_terms"] += len(result)
    counts["tower.window_terms"] = max(counts["tower.window_terms"], len(result))


def _filter_count(counts, args, kwargs, result):
    counts["series.filter.terms_in"] += len(args[0])
    counts["series.filter.terms_kept"] += len(result)


def _shift_count(counts, args, kwargs, result):
    counts["series.shift_expand.out_terms"] += len(result)


def _derive_count(counts, args, kwargs, result):
    counts["tower.derive.shift_cap_sum"] += sum(result.shift_caps)
    counts["tower.derive.degree_cap"] = max(counts["tower.derive.degree_cap"], result.degree_cap)


def _localization_count(counts, args, kwargs, result):
    from segre_towers.flag import localization_integral

    bound = inspect.signature(localization_integral).bind(*args, **kwargs)
    bound.apply_defaults()
    k, trials = bound.arguments["k"], bound.arguments["trials"]
    counts["flag.localization.permutations"] += trials * math.factorial(k + 1)


#: (span name, module, attribute, counter).  A dotted attribute names a
#: method; every module namespace binding the same object is patched.
TRACED = (
    ("series.mul", "series", "LaurentPoly.__mul__", _mul_count),
    ("series.filter", "series", "LaurentPoly.filter_terms", _filter_count),
    ("series.shift_expand", "series", "shift_expand", _shift_count),
    ("series.descending_expand", "series", "descending_expand", None),
    ("series.coefficient_of", "series", "coefficient_of", None),
    ("series.negative_part", "series", "negative_part", None),
    ("series.rename_variables", "series", "rename_variables", None),
    ("series.geometric_expand", "series", "geometric_expand", None),
    ("tower.derive", "tower", "TruncationRequest.derive", _derive_count),
    ("tower.validate_tower", "tower", "validate_tower", None),
    ("tower.closed_formula_product", "tower", "closed_formula_product", None),
    ("tower.closed_formula_segre", "tower", "closed_formula_segre", None),
    ("tower.stepwise_pushforward", "tower", "stepwise_pushforward", None),
    ("tower.individual_segre", "tower", "individual_segre", None),
    ("tower.pushforward_monomial", "tower", "pushforward_monomial", None),
    ("flag.flag_integral", "flag", "flag_integral", None),
    ("flag.flag_tower", "flag", "flag_tower", None),
    ("flag.vandermonde_product", "flag", "vandermonde_product", None),
    ("flag.vandermonde_integral", "flag", "vandermonde_integral", None),
    ("flag.localization_integral", "flag", "localization_integral", _localization_count),
    ("cli.main", "cli", "main", None),
    ("cli.load_tower_spec", "cli", "load_tower_spec", None),
    ("cli.tower_spec_from_doc", "cli", "tower_spec_from_doc", None),
    ("cli.run_verify", "cli", "run_verify", None),
    ("cli.format", "cli", "ResultTable.from_poly", None),
    ("cli.format", "cli", "ResultTable.to_json_doc", None),
    ("cli.format", "cli", "ResultTable.to_text", None),
)


class _JsonProxy:
    """Stands in for ``json`` inside ``segre_towers.cli`` so that its
    ``dumps`` (the output formatting) is traced without touching the real
    module."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.tag = array("i")  # k of flag_integral spans, else -1
        self.counts: dict[str, float] = defaultdict(float)
        self.job_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        tag_k = name == "flag.flag_integral"
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.tag.append(args[0] if tag_k else -1)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        from segre_towers import cli  # noqa: F401  (loads every module)

        modules = [m for n, m in sys.modules.items()
                   if n == "segre_towers" or n.startswith("segre_towers.")]
        for name, module_name, attr, counter in TRACED:
            module = sys.modules[f"segre_towers.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, counter))
                else:
                    wrapped = self.wrap(name, raw, counter)
                for key, value in list(cls.__dict__.items()):
                    if value is raw:
                        self._patch(cls, key, wrapped)
            else:
                original = getattr(module, attr)
                wrapped = self.wrap(name, original, counter)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
        cli = sys.modules["segre_towers.cli"]
        self._patch(cli, "json", _JsonProxy(self.wrap("cli.format", json.dumps)))

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key] if isinstance(owner, type)
                              else getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def export(self) -> dict:
        return {
            "names": self.names,
            "name_id": list(self.name_id),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "job": list(self.job),
            "tag": list(self.tag),
            "counts": dict(self.counts),
        }


# -- analysis ------------------------------------------------------------------


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly (one thread, call-stack order), so the children of a
    span cover disjoint parts of it and their durations can be summed.
    """
    own = [e - s for s, e in zip(start, end)]
    for idx, par in enumerate(parent):
        if par >= 0:
            own[par] -= end[idx] - start[idx]
    return own


def summarize(trace: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds and inclusive seconds."""
    own = self_times(trace["start"], trace["end"], trace["parent"])
    names = trace["names"]
    out: dict[str, dict[str, float]] = {}
    for idx, nid in enumerate(trace["name_id"]):
        row = out.setdefault(names[nid], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[idx]
        row["total_s"] += trace["end"][idx] - trace["start"][idx]
    return out


def layer_self(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self seconds per layer (the part of a span name before the first dot)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, row in summary.items():
        out[name.split(".")[0]] += row["self_s"]
    return out


def flag_times_by_k(trace: dict) -> dict[int, list[float]]:
    """Durations of ``flag.flag_integral`` spans grouped by k."""
    out: dict[int, list[float]] = defaultdict(list)
    for idx, k in enumerate(trace["tag"]):
        if k >= 0:
            out[k].append(trace["end"][idx] - trace["start"][idx])
    return out
