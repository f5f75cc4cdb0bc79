"""Span tracer that times the program's layers from outside.

``Tracer.install()`` replaces each layer's public entry points with a timing
wrapper, in every ``twistalex`` module that bound the function by name
(``twisted.det_poly_matrix``, ``metabelian.cokernel_structure``,
``conjectures.wada_invariant``, ...) and, for methods, on the class.
``uninstall()`` puts the original objects back.  Nothing under ``src/`` is
edited.  Spans are kept in memory as ``[id, name, group, start_ns, end_ns,
parent_id]`` (the id is the span's index) and aggregated into the per-layer
metrics by ``layer_metrics``.

Element-level modules (``domains``, ``cyclo``, ``words``, ``matrix``) get
millions of calls, so they are not wrapped; their cost shows through
``polydet``'s per-domain split.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from twistalex.cyclo import CyclotomicField
from twistalex.domains import PrimeField


def _domain_kind(dom) -> str:
    if isinstance(dom, CyclotomicField):
        return "cyclo"
    if isinstance(dom, PrimeField):
        return "gfp"
    return {"ZZ": "zz", "QQ": "qq"}[dom.name]


def _det_group(args, kwargs) -> str:
    dom = args[1] if len(args) > 1 else kwargs["dom"]
    return f"polydet.det.{_domain_kind(dom)}"


def _det_counts(args, kwargs, result):
    """n, the evaluation points deg bound + 1 (deg bound taken after each
    row's negative exponents are cleared, as the engines do) and n^3 * points."""
    rows = args[0]
    n = len(rows)
    deg_bound = 0
    for row in rows:
        live = [f for f in row if not f.is_zero()]
        if not live:
            return {"polydet.max_n": ("max", n)}
        lo = min(f.low() for f in live)
        deg_bound += max(f.deg() for f in live) - lo
    points = deg_bound + 1
    return {"polydet.max_n": ("max", n), "polydet.eval_points": ("sum", points),
            "polydet.elim_work": ("sum", n ** 3 * points)}


def _snf_counts(args, kwargs, result):
    a = args[0]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    return {"snf.max_dim": ("max", max(rows, cols)), "snf.cells": ("sum", rows * cols)}


def _epi_counts(args, kwargs, result):
    return {"metabelian.epis_found": ("sum", len(result))}


def _specialized_counts(args, kwargs, result):
    return {"fox.specialized_entries": ("sum", len(result) * len(result[0]) if result else 0)}


def _generator_counts(args, kwargs, result):
    return {"presentation.generators": ("sum", getattr(result, "generator_count", 0))}


# (module, attribute path, group, counter function); the group may depend on
# the arguments (polydet's per-domain split)
TARGETS = (
    ("twistalex.polydet", "det_poly_matrix", _det_group, _det_counts),
    ("twistalex.snf", "cokernel_structure", "snf", _snf_counts),
    ("twistalex.snf", "smith_normal_form", "snf", _snf_counts),
    ("twistalex.metabelian", "branched_cover_homology", "metabelian.covers", None),
    ("twistalex.metabelian", "alexander_module", "metabelian.module", None),
    ("twistalex.metabelian", "alexander_polynomial", "metabelian.module", None),
    ("twistalex.metabelian", "characters_of_quotient", "metabelian.characters", None),
    ("twistalex.metabelian", "find_dihedral_epis", "metabelian.epis", _epi_counts),
    ("twistalex.metabelian", "find_zn_apn_epis", "metabelian.epis", _epi_counts),
    ("twistalex.metabelian", "find_metacyclic_epis", "metabelian.epis", _epi_counts),
    ("twistalex.reps", "rep_metabelian", "reps.build", None),
    ("twistalex.reps", "rep_dihedral", "reps.build", None),
    ("twistalex.reps", "rep_metacyclic", "reps.build", None),
    ("twistalex.reps", "rep_gamma_compose", "reps.build", None),
    ("twistalex.reps", "summand_compose", "reps.build", None),
    ("twistalex.reps", "rep_onedim", "reps.build", None),
    ("twistalex.reps", "rep_trivial", "reps.build", None),
    ("twistalex.reps", "rep_mod_p", "reps.build", None),
    ("twistalex.reps", "Representation.conjugate", "reps.conjugate", None),
    ("twistalex.laurent", "RationalFunction.__init__", "laurent.reduce", None),
    ("twistalex.fox", "alexander_fox_matrix", "fox.matrix", None),
    ("twistalex.fox", "specialize_matrix", "fox.specialize", _specialized_counts),
    ("twistalex.fox", "specialize_element", "fox.specialize", _specialized_counts),
    ("twistalex.presentation", "parse_braid", "presentation.parse", None),
    ("twistalex.presentation", "braid_closure_presentation", "presentation.parse",
     _generator_counts),
    ("twistalex.presentation", "parse_presentation", "presentation.parse", _generator_counts),
    ("twistalex.twisted", "wada_invariant", "twisted.wada", None),
    ("twistalex.twisted", "TwistedPolynomial.to_text", "twisted.canonical", None),
    ("twistalex.twisted", "TwistedPolynomial.canonical", "twisted.canonical", None),
    ("twistalex.factorint", "factor_integer_poly", "factorint.factor", None),
    ("twistalex.conjectures", "check_conjecture_A", "conjectures.check", None),
    ("twistalex.conjectures", "check_conjecture_Aprime", "conjectures.check", None),
    ("twistalex.conjectures", "check_conjecture_B1", "conjectures.check", None),
    ("twistalex.conjectures", "check_conjecture_B2", "conjectures.check", None),
)

# per-layer metric name -> unit
_S, _COUNT = "s", "count"
PER_LAYER = {
    **{f"polydet.det_s.{d}": _S for d in ("cyclo", "zz", "gfp", "qq")},
    **{f"polydet.calls.{d}": _COUNT for d in ("cyclo", "zz", "gfp", "qq")},
    "polydet.max_n": _COUNT, "polydet.eval_points": _COUNT, "polydet.elim_work": _COUNT,
    "snf.snf_s": _S, "snf.max_dim": _COUNT, "snf.cells": _COUNT,
    "metabelian.covers_s": _S, "metabelian.covers_self_s": _S, "metabelian.module_s": _S,
    "metabelian.characters_s": _S, "metabelian.epis_s": _S, "metabelian.epis_found": _COUNT,
    "reps.build_s": _S, "reps.conjugate_s": _S,
    "laurent.reduce_s": _S,
    "fox.matrix_s": _S, "fox.specialize_s": _S, "fox.specialized_entries": _COUNT,
    "presentation.parse_s": _S, "presentation.generators": _COUNT,
    "twisted.wada_self_s": _S, "twisted.canonical_s": _S,
    "factorint.factor_s": _S, "factorint.calls": _COUNT,
    "conjectures.check_self_s": _S,
    "trace.overhead_frac": "ratio",
}

# metric -> (group, "total" | "self" | "calls")
_TIMED = {
    **{f"polydet.det_s.{d}": (f"polydet.det.{d}", "total") for d in ("cyclo", "zz", "gfp", "qq")},
    **{f"polydet.calls.{d}": (f"polydet.det.{d}", "calls") for d in ("cyclo", "zz", "gfp", "qq")},
    "snf.snf_s": ("snf", "total"),
    "metabelian.covers_s": ("metabelian.covers", "total"),
    "metabelian.covers_self_s": ("metabelian.covers", "self"),
    "metabelian.module_s": ("metabelian.module", "total"),
    "metabelian.characters_s": ("metabelian.characters", "total"),
    "metabelian.epis_s": ("metabelian.epis", "total"),
    "reps.build_s": ("reps.build", "total"),
    "reps.conjugate_s": ("reps.conjugate", "total"),
    "laurent.reduce_s": ("laurent.reduce", "total"),
    "fox.matrix_s": ("fox.matrix", "total"),
    "fox.specialize_s": ("fox.specialize", "total"),
    "presentation.parse_s": ("presentation.parse", "total"),
    "twisted.wada_self_s": ("twisted.wada", "self"),
    "twisted.canonical_s": ("twisted.canonical", "total"),
    "factorint.factor_s": ("factorint.factor", "total"),
    "factorint.calls": ("factorint.factor", "calls"),
    "conjectures.check_self_s": ("conjectures.check", "self"),
}


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    """In-memory span recorder; counters are taken at a group's outermost call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # ----------------------------------------------------------- recording
    def _enter(self, name: str, group: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, group, time.perf_counter_ns(), 0,
                parent[0] if parent else None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[4] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """A root span (one op); the layer spans of the op descend from it."""
        span = self._enter(name, "op")
        try:
            yield
        finally:
            self._exit(span)

    def _count(self, counts) -> None:
        for key, (kind, value) in counts.items():
            if kind == "max":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def _wrap(self, fn, name: str, group, count):
        tracer = self

        def traced(*args, **kwargs):
            g = group(args, kwargs) if callable(group) else group
            outermost = all(s[2] != g for s in tracer._stack)
            span = tracer._enter(name, g)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if outermost:
                tracer.counters[f"calls:{g}"] += 1
                if count is not None:
                    tracer._count(count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "twistalex" or n.startswith("twistalex."))]
        for module_name, path, group, count in TARGETS:
            owner, attr = _resolve(module_name, path)
            orig = getattr(owner, attr)
            name = module_name.rsplit(".", 1)[-1] + "." + path
            wrapper = self._wrap(orig, name, group, count)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [m for m in modules if getattr(m, attr, None) is orig]
            for holder in holders:
                self._patches.append((holder, attr, orig))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._patches):
            setattr(holder, attr, orig)
        self._patches.clear()

    # --------------------------------------------------------------- output
    def layer_metrics(self, overhead_frac: float) -> dict[str, tuple[float, str]]:
        totals, selfs = defaultdict(int), defaultdict(int)
        child_ns = defaultdict(int)
        for s in self.spans:
            if s[5] is not None:
                child_ns[s[5]] += s[4] - s[3]
        for s in self.spans:
            group, dur = s[2], s[4] - s[3]
            selfs[group] += dur - child_ns[s[0]]
            parent, nested = s[5], False
            while parent is not None:
                if self.spans[parent][2] == group:
                    nested = True
                    break
                parent = self.spans[parent][5]
            if not nested:
                totals[group] += dur
        out = {}
        for metric, unit in PER_LAYER.items():
            if metric in _TIMED:
                group, kind = _TIMED[metric]
                if kind == "calls":
                    value = self.counters.get(f"calls:{group}", 0)
                else:
                    value = (totals if kind == "total" else selfs)[group] / 1e9
            elif metric == "trace.overhead_frac":
                value = overhead_frac
            else:
                value = self.counters.get(metric, 0)
            out[metric] = (value, unit)
        return out

    def counter_snapshot(self) -> dict[str, int]:
        return dict(sorted(self.counters.items()))
