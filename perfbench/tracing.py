"""Spans and counters around the isocenter modules' public functions.

``Tracer.install`` wraps the functions listed in TIMED, COUNTED and
WALKS wherever the package holds them: the defining module, every module
that imported the name, and class attributes with their aliases (as
``__rmul__ = __mul__``).  Nothing in the program changes; ``uninstall``
puts the originals back.

A timed call is a span: name, start, end and the span that was open when
it began.  Self time is a span's duration minus the time its child spans
cover.  Spans of the coarse functions (TIMED with keep=True) are kept in
memory and written out by ``dump``; every timed call adds to its name's
call count, inclusive time (outermost calls only, so recursion is not
counted twice) and self time.  COUNTED functions only count calls, since
they run millions of times per round.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import pkgutil
from time import perf_counter

# (module, attribute path) -> stat name, keep spans
TIMED = {
    ("algebra", "BiPoly.__mul__"): ("algebra.bipoly_mul", False),
    ("algebra", "GaussianRational.parse"): ("algebra.parse", False),
    ("operators", "lie_bracket"): ("operators.lie_bracket", False),
    ("operators", "bracket_oracle"): ("operators.bracket_oracle", False),
    ("prenormal", "Mould.value"): ("prenormal.mould_eval", False),
    ("prepared", "PlanarField.from_json_obj"): ("prepared.load", True),
    ("prepared", "PlanarField.load"): ("prepared.load", True),
    ("prepared", "decompose"): ("prepared.decompose", True),
    ("prepared", "reconstruct"): ("prepared.reconstruct", True),
    ("lie_analysis", "pairwise_brackets"): ("lie_analysis.pairwise", True),
    ("lie_analysis", "central_series"): ("lie_analysis.central_series", True),
    ("lie_analysis", "resonant_subset_trivial"): ("lie_analysis.resonance", True),
    ("lie_analysis", "enumerate_resonant_words"): ("lie_analysis.enumerate", True),
    ("prenormal", "structural_linearisability"): ("prenormal.verdict", True),
    ("prenormal", "projection_sum"): ("prenormal.projection_sum", True),
    ("conditions", "check_uniform"): ("conditions.check", True),
    ("conditions", "check_cauchy_riemann"): ("conditions.check", True),
    ("conditions", "classify_quadratic"): ("conditions.check", True),
    ("conditions", "homogeneous_uniform_verdict"): ("conditions.check", True),
    ("conditions", "geometric_complexity"): ("conditions.check", True),
    ("numverify", "isochrony_scan"): ("numverify.isochrony_scan", True),
    ("numverify", "measure_period"): ("numverify.measure_period", True),
    ("cli", "emit"): ("cli.emit", True),
    ("lemmas", "lemma_quadratic_bracket"): ("lemmas.quadratic_bracket", True),
    ("lemmas", "lemma_bracket_formulas"): ("lemmas.bracket_formulas", True),
    ("lemmas", "lemma_fond2"): ("lemmas.fond2", True),
    ("lemmas", "lemma_structure1"): ("lemmas.structure1", True),
    ("lemmas", "lemma_holom"): ("lemmas.holom", True),
    ("lemmas", "lemma_fond3"): ("lemmas.fond3", True),
}
COUNTED = {
    ("algebra", "GaussianRational.__mul__"): "algebra.scalar_mul",
    ("algebra", "GaussianRational.__add__"): "algebra.scalar_add",
    ("algebra", "GaussianRational.__sub__"): "algebra.scalar_add",
    ("algebra", "BiPoly.partial"): "algebra.partial",
    ("operators", "Derivation.apply"): "operators.apply",
}
# Generators timed per step: each yielded (word, weight, bracket) is a node.
WALKS = {("lie_analysis", "iter_nested_brackets"): "lie_analysis.walk"}
# Functions whose result carries a callable to time: the real system's rhs.
RHS = ("numverify", "to_real_system")


class Tracer:
    def __init__(self):
        self.stats = {}     # name -> [calls, inclusive s, self s]
        self.counts = {}    # name -> [calls]
        self.nodes = [0, 0]  # walk nodes visited, of which resonant
        self.spans = []     # (id, parent id, name, start, end)
        self._stack = []    # open frames: [start, child s, span id]
        self._active = {}   # name -> [open calls], for outermost-only time
        self._undo = []

    # -- wrappers --

    def timed(self, name, fn, keep):
        stack, spans = self._stack, self.spans
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        active = self._active.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0, len(spans)]  # start, child seconds, span id
            stack.append(frame)
            active[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[0] -= 1
                dur = end - frame[0]
                st[0] += 1
                if not active[0]:
                    st[1] += dur
                st[2] += dur - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                if keep:
                    spans.append((frame[2], parent[2] if parent else None, name, frame[0], end))
        return wrapper

    def counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def walk(self, name, fn):
        nodes = self.nodes
        step = self.timed(name, next, False)

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = step(inner)
                except StopIteration:
                    return
                nodes[0] += 1
                nodes[1] += item[1] == 0
                yield item
        return wrapper

    def real_system(self, fn):
        timed = self.timed

        def wrapper(*args, **kwargs):
            system = fn(*args, **kwargs)
            return dataclasses.replace(system, rhs=timed("numverify.rhs", system.rhs, False))
        return wrapper

    # -- installation --

    def install(self):
        import isocenter

        modules = [importlib.import_module(f"isocenter.{m.name}")
                   for m in pkgutil.iter_modules(isocenter.__path__)]
        modules.append(isocenter)
        plan = [(k, lambda fn, n=n, keep=keep: self.timed(n, fn, keep)) for k, (n, keep) in TIMED.items()]
        plan += [(k, lambda fn, n=n: self.counted(n, fn)) for k, n in COUNTED.items()]
        plan += [(k, lambda fn, n=n: self.walk(n, fn)) for k, n in WALKS.items()]
        plan.append((RHS, self.real_system))
        for (module, path), wrap in plan:
            self._patch(modules, f"isocenter.{module}", path, wrap)

    def _patch(self, modules, module, path, wrap):
        try:
            owner = importlib.import_module(module)
        except ModuleNotFoundError:
            return  # the program no longer has this module: its metrics read 0
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
        if raw is None:
            return  # the program no longer has this function: its metrics read 0
        static = isinstance(raw, staticmethod)
        original = raw.__func__ if static else raw
        wrapped = wrap(original)
        replacement = staticmethod(wrapped) if static else wrapped
        holders = [owner] if cls_path else modules
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is raw or value is original:
                    self._undo.append((holder, key, value))
                    setattr(holder, key, replacement)

    def uninstall(self):
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    # -- output --

    def state(self) -> dict:
        return {"stats": self.stats, "counts": {k: v[0] for k, v in self.counts.items()},
                "nodes": self.nodes, "spans": self.spans}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.state(), fh)


def merge(states) -> dict:
    """Sum tracer states (from CLI child processes) into one."""
    out = {"stats": {}, "counts": {}, "nodes": [0, 0], "spans": []}
    for s in states:
        for name, (calls, incl, self_s) in s["stats"].items():
            st = out["stats"].setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += incl
            st[2] += self_s
        for name, calls in s["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + calls
        out["nodes"] = [a + b for a, b in zip(out["nodes"], s["nodes"])]
        out["spans"].extend(s["spans"])
    return out


def layer_metrics(state: dict, rounds: int, extra: dict) -> dict:
    """Per-layer metrics per round of the workload, from a tracer state.

    ``extra`` supplies the figures not taken from spans: import times and
    report bytes.  A layer the workload never reaches reads 0.
    """
    def calls(name):
        return state["stats"].get(name, [0, 0.0, 0.0])[0] / rounds

    def secs(name):
        return state["stats"].get(name, [0, 0.0, 0.0])[1] / rounds

    def count(name):
        return state["counts"].get(name, 0) / rounds

    nodes, resonant = state["nodes"]
    walk_s = secs("lie_analysis.walk") * rounds
    periods = calls("numverify.measure_period")
    m = {
        "algebra.scalar_mul_calls": count("algebra.scalar_mul"),
        "algebra.scalar_add_calls": count("algebra.scalar_add"),
        "algebra.bipoly_mul_calls": calls("algebra.bipoly_mul"),
        "algebra.partial_calls": count("algebra.partial"),
        "algebra.bipoly_mul_s": secs("algebra.bipoly_mul"),
        "algebra.parse_s": secs("algebra.parse"),
        "operators.lie_bracket_calls": calls("operators.lie_bracket"),
        "operators.apply_calls": count("operators.apply"),
        "operators.lie_bracket_s": secs("operators.lie_bracket"),
        "operators.lie_bracket_us": (secs("operators.lie_bracket") / calls("operators.lie_bracket") * 1e6
                                     if calls("operators.lie_bracket") else 0.0),
        "operators.bracket_oracle_calls": calls("operators.bracket_oracle"),
        "operators.bracket_oracle_s": secs("operators.bracket_oracle"),
        "prepared.load_s": secs("prepared.load"),
        "prepared.decompose_s": secs("prepared.decompose"),
        "prepared.reconstruct_s": secs("prepared.reconstruct"),
        "lie_analysis.nodes_visited": nodes / rounds,
        "lie_analysis.nodes_per_s": nodes / walk_s if walk_s else 0.0,
        "lie_analysis.resonant_node_share": resonant / nodes if nodes else 0.0,
        "lie_analysis.pairwise_s": secs("lie_analysis.pairwise"),
        "lie_analysis.central_series_s": secs("lie_analysis.central_series"),
        "lie_analysis.resonance_s": secs("lie_analysis.resonance"),
        "lie_analysis.enumerate_s": secs("lie_analysis.enumerate"),
        "prenormal.verdict_s": secs("prenormal.verdict"),
        "prenormal.projection_sum_s": secs("prenormal.projection_sum"),
        "prenormal.mould_eval_s": secs("prenormal.mould_eval"),
        "prenormal.mould_evals": calls("prenormal.mould_eval"),
        "conditions.check_s": secs("conditions.check"),
        "numverify.measure_period_s": secs("numverify.measure_period"),
        "numverify.rhs_s": secs("numverify.rhs"),
        "numverify.rhs_evals": calls("numverify.rhs"),
        "numverify.rhs_evals_per_period": calls("numverify.rhs") / periods if periods else 0.0,
        "cli.emit_s": secs("cli.emit"),
    }
    m.update(extra)
    for lemma in ("quadratic_bracket", "bracket_formulas", "fond2", "structure1", "holom", "fond3"):
        m[f"lemmas.{lemma}_s"] = secs(f"lemmas.{lemma}")
    return {name: {"value": value, "unit": unit(name)} for name, value in m.items()}


def unit(name: str) -> str:
    for suffix, u in (("_per_s", "1/s"), ("_us", "us"), ("_s", "s"), ("_share", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return u
    return "count"


def self_times(state: dict) -> dict:
    """Self seconds by span name, largest first."""
    rows = sorted(state["stats"].items(), key=lambda kv: -kv[1][2])
    return {name: round(st[2], 6) for name, st in rows if st[0]}
