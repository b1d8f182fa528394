"""Span tracing for the traced run, installed from the benchmark's own files.

No file of the program is edited.  ``Tracer.install`` replaces every public
function of each layer module with a wrapper, in the defining module and in
every module that imported it under the same name (``cli.run_law_suite``,
``laws.check_quasi_equation``, ``constructions.mat_mul``, ...), plus the
``FiniteAlgebra`` constructor check and the fingerprint methods.

A wrapper opens a span only at a layer boundary, when the caller is in
another layer; a call within the same layer is counted but adds no span,
since its time belongs to the same layer either way.  Each span records
its name, start, end, parent span and operation id; spans are kept in
memory and written out when the round ends.  A layer's self time is the
duration of its spans minus the time their child spans cover, computed as
spans close.
"""

from __future__ import annotations

import gzip
import json
import os
import types
from array import array
from collections import Counter
from time import perf_counter

LAYERS = (
    "terms", "instances", "algfile", "algebra", "constructions",
    "semantics", "laws", "hoare", "cli",
)


class Tracer:
    def __init__(self, mods):
        self.m = mods
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # One entry per span: name id, start, end, parent span (-1 at top), op.
        self.s_name, self.s_parent, self.s_op = array("i"), array("i"), array("i")
        self.s_start, self.s_end = array("d"), array("d")
        self.stack: list[list] = []  # [layer, span index, child time]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.valuations = self.checks = self.cells = self.bytes = 0
        self.op = -1
        self._undo: list = []

    # -- wrapping ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, layer: str, name: str, fn, after=None):
        """A wrapper that opens a ``name`` span when called from another layer."""
        nid = self._name_id(name)
        stack, calls = self.stack, self.calls

        def traced(*args, **kwargs):
            calls[name] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            idx = len(self.s_name)
            self.s_name.append(nid)
            self.s_parent.append(stack[-1][1] if stack else -1)
            self.s_op.append(self.op)
            self.s_start.append(0.0)
            self.s_end.append(0.0)
            frame = [layer, idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.s_start[idx] = start
                self.s_end[idx] = end
                dur = end - start
                self.self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        m = self.m
        modules = [getattr(m, layer) for layer in LAYERS] + [m.pkg]
        hooks = {
            ("semantics", "check_quasi_equation"): self._count_verdict,
            ("semantics", "check_equation"): self._count_verdict,
            ("algfile", "dump_algebra"): self._count_file,
            ("algfile", "load_algebra"): self._count_file,
        }
        for layer in LAYERS:
            mod = getattr(m, layer)
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                after = hooks.get((layer, name))
                if layer == "constructions":
                    after = self._count_cells
                wrapper = self.wrap(layer, f"{layer}.{name}", obj, after)
                for other in modules:
                    if vars(other).get(name) is obj:
                        self._undo.append((other, name, obj))
                        setattr(other, name, wrapper)
        fin, proc = m.algebra.FiniteAlgebra, m.algebra.ProceduralAlgebra
        for cls, attr, name in (
            (fin, "__post_init__", "algebra.validate"),
            (fin, "fingerprint", "algebra.fingerprint"),
            (proc, "fingerprint", "algebra.fingerprint"),
            (fin, "canonical_text", "algebra.canonical_text"),
        ):
            original = vars(cls)[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap("algebra", name, original))

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    # -- counters ------------------------------------------------------------------

    def _count_verdict(self, args, verdict) -> None:
        self.checks += 1
        self.valuations += verdict.checked

    def _count_file(self, args, result) -> None:
        self.bytes += os.path.getsize(args[1] if len(args) > 1 else args[0])

    def _count_cells(self, args, result) -> None:
        if isinstance(result, self.m.algebra.FiniteAlgebra):
            n = result.size
            self.cells += 3 * n * n + n

    # -- results -------------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in self.self_s.items():
            out[name.split(".", 1)[0]] += t
        return out

    def summary(self, wall: float, ops: int) -> dict:
        """Per-layer figures of one traced round."""
        layers = self.layer_self()
        return {
            **{f"{layer}.self_s": t for layer, t in layers.items()},
            "algebra.validate_s": self.self_s["algebra.validate"],
            "algebra.fingerprint_s": self.self_s["algebra.fingerprint"],
            "fingerprints": self.calls["algebra.fingerprint"],
            "ops": ops,
            "bytes": self.bytes,
            "mat_mul_calls": self.calls["constructions.mat_mul"],
            "cells": self.cells,
            "valuations": self.valuations,
            "checks": self.checks,
            "wall_s": wall,
            "spans": len(self.s_name),
        }

    def write(self, path: str) -> None:
        """Write every span as columns of a gzip-compressed JSON object."""
        doc = {
            "names": self.names,
            "name": self.s_name.tolist(),
            "start": self.s_start.tolist(),
            "end": self.s_end.tolist(),
            "parent": self.s_parent.tolist(),
            "op": self.s_op.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)
