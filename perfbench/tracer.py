"""Spans and counters recorded from outside the program.

``Tracer.install`` wraps the public functions of the traced jacobispec
modules, replacing every module global (and class attribute, for
``BiPoly.__mul__``) that refers to the original, so each call is caught
where its caller looks the name up.  ``numpy.roots`` is wrapped too and
booked to the monodromy layer as a root solve.

A span's self time is its duration minus the time covered by its child
spans.  Spans are folded into per-name totals as they close, so memory stays
flat however many calls an operation makes.  Private helpers are not
wrapped; neither is ``monodromy.compose``, the inner loop of the private
group closure.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

LAYERS = ("cli", "pencil", "exactpoly", "mechanisms", "hensel", "monodromy")
NOT_WRAPPED = {"jacobispec.monodromy.compose"}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {
            "hensel.subsets_tried": 0,
            "hensel.witnesses": 0,
            "mechanisms.certificates": 0,
            "monodromy.branch_points": 0,
        }
        self.min_separation = math.inf
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0])

    def _close(self) -> None:
        name, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        if self.stack:
            self.stack[-1][2] += duration

    def span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def layer_self(self, layer: str) -> float:
        return sum(
            v for k, v in self.self_time.items() if k.split(".", 1)[0] == layer
        )

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "jacobispec" or mod_name.startswith("jacobispec.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _count_subsets(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for subset in fn(*args, **kwargs):
                self.counts["hensel.subsets_tried"] += 1
                yield subset

        return wrapper

    def _on_decide(self, decision) -> None:
        self.counts["hensel.witnesses"] += len(decision.witnesses)

    def _on_apply_all(self, report) -> None:
        self.counts["mechanisms.certificates"] += len(report.certificates)

    def _on_branch_points(self, points) -> None:
        self.counts["monodromy.branch_points"] += len(points)

    def _on_monodromy(self, report) -> None:
        self.min_separation = min(self.min_separation, report.certified_step)

    def install(self) -> None:
        import numpy

        import jacobispec.exactpoly

        hooks = {
            "hensel.decide": self._on_decide,
            "mechanisms.apply_all": self._on_apply_all,
            "monodromy.branch_points": self._on_branch_points,
            "monodromy.monodromy_group": self._on_monodromy,
        }
        for layer in LAYERS:
            mod = sys.modules[f"jacobispec.{layer}"]
            for attr, fn in list(vars(mod).items()):
                full = f"{mod.__name__}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or full in NOT_WRAPPED
                ):
                    continue
                name = f"{layer}.{attr}"
                if name == "hensel.canonical_subsets":
                    wrapper = self._count_subsets(fn)
                else:
                    wrapper = self.span(name, fn, hooks.get(name))
                self._replace_everywhere(fn, wrapper)

        bipoly = jacobispec.exactpoly.BiPoly
        mul = bipoly.__mul__
        wrapped_mul = self.span("exactpoly.bipoly_mul", mul)
        for attr in ("__mul__", "__rmul__"):
            if vars(bipoly)[attr] is mul:
                self._set(bipoly, attr, wrapped_mul)

        self._set(numpy, "roots", self.span("monodromy.root_solve", numpy.roots))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
