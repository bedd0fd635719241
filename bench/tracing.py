"""Per-layer tracing installed from outside the program.

:func:`install` wraps public functions of each ``spin7`` module. Coarse
boundaries (suites, derived-object builders, frame checks, ...) record one
span per call: name, start, end and parent span. Hot functions only add to
a per-name counter and summed time, so the span store stays small.

A wrapper's self time is its duration minus the time spent inside the
wrapped functions it called. Module functions are rebound in every
``spin7`` module that imported them by name, including the values of
module-level dicts; methods are patched on their class.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

SPAN, COUNT = "span", "count"

# (module[:Class], attribute, metric prefix, kind)
TARGETS = [
    ("spin7.forms", "sort_with_sign", "forms.sort_with_sign", COUNT),
    ("spin7.forms:AltForm", "coefficient_signed", "forms.AltForm.coefficient_signed", COUNT),
    ("spin7.forms:AltForm", "evaluate", "forms.AltForm.evaluate", COUNT),
    ("spin7.forms", "pullback", "forms.pullback", SPAN),
    ("spin7.forms", "parse_form", "forms.parse_form", COUNT),
    ("spin7.linalg:Vector", "__init__", "linalg.Vector.init", COUNT),
    ("spin7.linalg:Matrix", "__init__", "linalg.Matrix.init", COUNT),
    ("spin7.linalg:Matrix", "__matmul__", "linalg.Matrix.matmul", COUNT),
    ("spin7.linalg:Matrix", "inverse", "linalg.Matrix.inverse", COUNT),
    ("spin7.linalg", "det", "linalg.det", COUNT),
    ("spin7.linalg", "rref", "linalg.rref", COUNT),
    ("spin7.linalg", "kernel_basis", "linalg.kernel_basis", COUNT),
    ("spin7.linalg:RowSpan", "add", "linalg.RowSpan.add", COUNT),
    ("spin7.linalg", "rank", "linalg.rank", COUNT),
    ("spin7.cross:CrossProduct", "cross3", "cross.cross3", COUNT),
    ("spin7.cross:CrossProduct", "composition_sides", "cross.composition_sides", COUNT),
    ("spin7.cross", "verify_composition_lemma", "cross.verify_composition_lemma", SPAN),
    ("spin7.cross", "verify_compatibility", "cross.verify_compatibility", SPAN),
    ("spin7.octonion", "oct_mul", "octonion.oct_mul", COUNT),
    ("spin7.octonion:UnitTable", "from_form", "octonion.UnitTable.from_form", SPAN),
    ("spin7.acs", "span_stability", "acs.span_stability", SPAN),
    ("spin7.acs", "rotated_acs_family", "acs.rotated_acs_family", COUNT),
    ("spin7.acs", "span_contains_matrix", "acs.span_contains_matrix", COUNT),
    ("spin7.acs", "check_frame", "acs.check_frame", SPAN),
    ("spin7.acs", "acs_basis", "acs.acs_basis", SPAN),
    ("spin7.stabilizers", "spin7", "stabilizers.spin7", SPAN),
    ("spin7.stabilizers", "g2_stabilizer", "stabilizers.g2_stabilizer", SPAN),
    ("spin7.stabilizers", "form_action", "stabilizers.form_action", COUNT),
    ("spin7.stabilizers", "signed_perm_symmetries", "stabilizers.signed_perm_symmetries", SPAN),
    ("spin7.stabilizers", "extract_omega", "stabilizers.extract_omega", SPAN),
    ("spin7.stabilizers", "decompose_so8", "stabilizers.decompose_so8", SPAN),
    ("spin7.stabilizers", "constraint_system_g2", "stabilizers.constraint_system_g2", SPAN),
    ("spin7.verify", "reports_to_json", "verify.reports_to_json", COUNT),
] + [
    ("spin7.verify", f"suite_{name}", f"verify.suite.{name}", SPAN)
    for name in ("selfdual", "axioms", "lemma", "claim1", "claim2", "claim3", "claim4")
]


class BindingMissed(RuntimeError):
    """A traced function could not be found or rebound anywhere."""


class Tracer:
    """Spans, counters and summed times for one process."""

    def __init__(self):
        self.stack: list[list] = []  # open calls: [seconds in traced callees, span id]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, callee_s]
        self.values: dict[str, int] = {}  # counts a wrapper derives from results
        self.spans: list[tuple] = []  # (name, start, end, parent span id)
        self.unit_triples: set = set()
        self._unit_index: dict = {}

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def add(self, name: str, n: int = 1) -> None:
        self.values[name] = self.values.get(name, 0) + n

    def wrap(self, name: str, fn, kind: str, after=None, on_error=None):
        stack = self.stack
        spans = self.spans
        stat = self._stat(name)

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if kind == SPAN:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += frame[0]
                if stack:
                    stack[-1][0] += dt
                if kind == SPAN:
                    spans[span_id] = (name, t0, t1, parent)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_cross3(self, fn):
        """cross3 split into unit calls (one nonzero per argument) and dense ones."""
        unit = self.wrap("cross.cross3.unit", fn, COUNT)
        dense = self.wrap("cross.cross3.dense", fn, COUNT)
        triples = self.unit_triples
        index = self._unit_index

        def cross3(cp, a, b, c):
            ca, cb, cc = a.comps, b.comps, c.comps
            if ca.count(0) == 7 and cb.count(0) == 7 and cc.count(0) == 7:
                key = []
                for comps in (ca, cb, cc):
                    i = index.get(comps)
                    if i is None:
                        i = index[comps] = next(k for k, x in enumerate(comps) if x)
                    key.append(i)
                triples.add(tuple(key))
                return unit(cp, a, b, c)
            return dense(cp, a, b, c)

        cross3.__wrapped__ = fn
        return cross3

    def aggregates(self) -> dict:
        """Summed calls, total and self time per name, plus derived counts."""
        out = {
            name: {"calls": calls, "total_s": total, "self_s": total - callee}
            for name, (calls, total, callee) in self.stats.items()
        }
        return {"stats": out, "values": dict(self.values),
                "unit_triples": sorted(self.unit_triples)}

    def dump(self, path: str) -> None:
        obj = self.aggregates()
        obj["spans"] = [s for s in self.spans if s is not None]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)


def _rebind(orig, wrapper, modules) -> int:
    """Replace every module-level binding of ``orig``; return how many."""
    hits = 0
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
                hits += 1
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is orig:
                        value[dkey] = wrapper
                        hits += 1
    return hits


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap every target; returns the number of bindings replaced per target."""
    from spin7.acs import FrameNotAdmissible

    importlib.import_module("spin7.cli")
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "spin7" or name.startswith("spin7."))]
    def count_rejection(exc: Exception) -> None:
        if isinstance(exc, FrameNotAdmissible):
            tracer.add("acs.check_frame.rejected")

    def count_symmetries(result: list) -> None:
        tracer.add("stabilizers.signed_perm_symmetries.results", len(result))

    hooks = {
        "stabilizers.signed_perm_symmetries": {"after": count_symmetries},
        "acs.check_frame": {"on_error": count_rejection},
    }
    for _, _, name, _ in TARGETS:
        if name.startswith("verify.suite."):
            hooks[name] = {"after": lambda report, key=f"{name}.cases": tracer.add(key, report.cases)}
    bindings = {}
    for owner_path, attr, name, kind in TARGETS:
        mod_name, _, cls_name = owner_path.partition(":")
        mod = importlib.import_module(mod_name)
        if cls_name:
            cls = getattr(mod, cls_name)
            raw = cls.__dict__.get(attr)
            if raw is None:
                raise BindingMissed(f"{owner_path}.{attr} not found")
            if name == "cross.cross3":
                setattr(cls, attr, tracer.wrap_cross3(raw))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, kind)))
            else:
                setattr(cls, attr, tracer.wrap(name, raw, kind, **hooks.get(name, {})))
            bindings[name] = 1
        else:
            orig = getattr(mod, attr, None)
            if orig is None:
                raise BindingMissed(f"{owner_path}.{attr} not found")
            wrapper = tracer.wrap(name, orig, kind, **hooks.get(name, {}))
            bindings[name] = _rebind(orig, wrapper, modules)
            if not bindings[name]:
                raise BindingMissed(f"no module binds {owner_path}.{attr}")
    return bindings
