"""Span tracer for the traced run: wraps bjweyl's functions from outside.

``Tracer.install`` replaces the public functions of the eight modules (plus a
few private helpers the per-layer metrics need) with wrappers, in every
namespace that binds them: ``bjweyl.weyl.weyl_schur`` and
``bjweyl.cli.weyl_schur`` alike, and the ``JacobiParams.blocks``/``solve_A``
methods.  ``uninstall`` puts the originals back.

Each wrapped call becomes a span ``(id, parent, name, start, end, self, arg)``
kept in memory; self time is the span's duration minus the time its children
cover.  Two hot paths are aggregated instead of recorded one span per call:
``JacobiParams.solve_A`` and ``seminorms.affine_interp`` keep a call count and
their self time, and a block lookup that hits the cache only bumps a counter
(a miss is a ``blockcore.materialize`` span).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("blockcore", "weyl", "solutions", "subordinacy", "transfer", "seminorms",
          "measure", "cli")
PRIVATE = {"weyl": ("_resolvent_columns",), "subordinacy": ("_pq_sq_nodes",)}
LEAVES = {"seminorms.affine_interp"}
# span name -> argument recorded with the span
ARGS = {
    "weyl.weyl_schur": lambda a: [a["N"], a["p"].d],
    "weyl.weyl_resolvent": lambda a: a["N"],
    "weyl._resolvent_columns": lambda a: a["N"],
    "solutions.compute_PQ": lambda a: a["n_max"],
    "subordinacy._pq_sq_nodes": lambda a: a["horizon"],
    "seminorms.seminorm_nodes": lambda a: a["n2"] - a["n1"] + 1,
    "measure.quadrature_measure": lambda a: a["N"] * a["p"].d,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.leaf = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.lookups = 0
        self._stack = []  # frames [span id, seconds covered by children]
        self._next_id = 0
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        stack, spans = self._stack, self.spans
        arg_of = ARGS.get(name)
        sig = inspect.signature(fn) if arg_of else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                arg = arg_of(sig.bind(*args, **kwargs).arguments) if arg_of else None
                spans.append((sid, parent, name, t0, t1, t1 - t0 - frame[1], arg))
        return wrapper

    def _leaf(self, name, fn):
        stack, acc = self._stack, self.leaf[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # spans opened inside keep the enclosing span as their parent
            frame = [stack[-1][0] if stack else -1, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                acc[0] += 1
                acc[1] += dt - frame[1]
        return wrapper

    def _blocks(self, fn):
        materialize = self._span("blockcore.materialize", fn)

        @functools.wraps(fn)
        def blocks(p, n):
            self.lookups += 1
            if n in p._cache:
                return fn(p, n)
            return materialize(p, n)
        return blocks

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import bjweyl.cli  # noqa: F401  (loads all eight modules)
        from bjweyl.blockcore import JacobiParams
        from bjweyl.measure import DiscreteMatrixMeasure

        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"bjweyl.{layer}"]
            for attr in (*getattr(mod, "__all__", ()), *PRIVATE.get(layer, ())):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[fn] = (self._leaf if name in LEAVES else self._span)(name, fn)
        for mod in list(sys.modules.values()):
            try:
                items = list(vars(mod).items())
            except TypeError:
                continue
            for attr, val in items:
                if inspect.isfunction(val) and val in wrapped:
                    self._set(mod, attr, wrapped[val])
        self._set(JacobiParams, "blocks", self._blocks(JacobiParams.blocks))
        self._set(JacobiParams, "solve_A",
                  self._leaf("blockcore.solve_A", JacobiParams.solve_A))
        self._set(DiscreteMatrixMeasure, "from_pairs", staticmethod(
            self._span("measure.from_pairs", DiscreteMatrixMeasure.from_pairs)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """All spans as gzipped JSON lines, then one line of aggregated leaves."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "name", "start", "end", "self", "arg"), s))) + "\n")
            fh.write(json.dumps({"leaves": dict(self.leaf), "lookups": self.lookups}) + "\n")


def layer_metrics(tr: Tracer, cycles: int, overhead: float, bytes_out: int) -> dict:
    """Per-layer numbers per cycle from the spans of ``cycles`` traced cycles."""
    by = defaultdict(list)
    for s in tr.spans:
        by[s[2]].append(s)

    def calls(name):
        return len(by[name]) / cycles

    def total(*names):
        return sum(s[4] - s[3] for n in names for s in by[n]) / cycles

    def self_(*names):
        return sum(s[5] for n in names for s in by[n]) / cycles

    def module_self(layer):
        names = [n for n in by if n.startswith(layer + ".")]
        return self_(*names) + sum(v[1] for k, v in tr.leaf.items()
                                   if k.startswith(layer + ".")) / cycles

    def per_unit(spans, units, scale=1e6, use_self=False):
        secs = sum(s[5] if use_self else s[4] - s[3] for s in spans)
        return scale * secs / units if units else 0.0

    mat = calls("blockcore.materialize")
    lookups = tr.lookups / cycles
    schur = by["weyl.weyl_schur"]
    m = {
        "blockcore.lookups": lookups,
        "blockcore.materializations": mat,
        "blockcore.hit_ratio": 1.0 - mat / lookups if lookups else 0.0,
        "blockcore.materialize_s": total("blockcore.materialize"),
        "blockcore.solve_A_calls": tr.leaf["blockcore.solve_A"][0] / cycles,
        "blockcore.solve_A_s": tr.leaf["blockcore.solve_A"][1] / cycles,
        "blockcore.make_family_calls": calls("blockcore.make_family"),
        "blockcore.make_family_s": total("blockcore.make_family"),
        "weyl.schur_calls": len(schur) / cycles,
        "weyl.schur_block_steps": sum(s[6][0] for s in schur) / cycles,
        "weyl.schur_s": self_("weyl.weyl_schur"),
    }
    for d in (1, 2, 3):
        sd = [s for s in schur if s[6][1] == d]
        m[f"weyl.schur_us_per_block.d{d}"] = per_unit(sd, sum(s[6][0] for s in sd),
                                                      use_self=True)
    res = by["weyl.weyl_resolvent"] + by["weyl._resolvent_columns"]
    m["weyl.resolvent_calls"] = len(res) / cycles
    m["weyl.resolvent_us_per_block"] = per_unit(res, sum(s[6] for s in res))
    m["weyl.finite_section_s"] = total("weyl.finite_section")

    pq = by["solutions.compute_PQ"]
    steps = sum(s[6] for s in pq)
    m["solutions.pq_calls"] = len(pq) / cycles
    m["solutions.pq_steps"] = steps / cycles
    m["solutions.pq_us_per_step"] = per_unit(pq, steps)

    horizons = defaultdict(list)
    for s in by["subordinacy._pq_sq_nodes"]:
        horizons[s[1]].append(s[6])
    computed = sum(sum(h) for h in horizons.values())
    m["subordinacy.jl_s"] = self_("subordinacy.jl_function", "subordinacy._pq_sq_nodes")
    m["subordinacy.pq_useful_ratio"] = (
        sum(max(h) for h in horizons.values()) / computed if computed else 0.0)
    m["subordinacy.nonsub_s"] = total("subordinacy.nonsub_diagnostic")
    m["subordinacy.gram_s"] = total("subordinacy.gram_nodes")

    m["transfer.step_calls"] = calls("transfer.transfer_step")
    m["transfer.step_s"] = total("transfer.transfer_step")
    m["transfer.nstep_s"] = total("transfer.transfer_nstep")

    m["seminorms.nodes_calls"] = calls("seminorms.seminorm_nodes")
    m["seminorms.nodes_terms"] = sum(s[6] for s in by["seminorms.seminorm_nodes"]) / cycles
    m["seminorms.s"] = module_self("seminorms")

    m["measure.quadrature_calls"] = calls("measure.quadrature_measure")
    m["measure.section_dim"] = max((s[6] for s in by["measure.quadrature_measure"]),
                                   default=0)
    m["measure.quadrature_s"] = self_("measure.quadrature_measure")
    m["measure.from_pairs_s"] = total("measure.from_pairs")
    m["measure.cauchy_s"] = total("measure.cauchy_transform")

    m["cli.parse_s"] = total("cli.parse_config")
    m["cli.self_s"] = module_self("cli")
    m["cli.bytes_out"] = bytes_out / cycles
    m["trace.overhead_s"] = overhead
    return m
