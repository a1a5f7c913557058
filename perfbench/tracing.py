"""Spans around the calls into each framestab layer, from outside the package.

``Tracer.install`` replaces the listed functions and methods by wrappers in
every ``framestab`` module that holds them, so calls made through a module
attribute and names imported with ``from ... import`` are both seen. Each
span records its name, start, end, parent and the op it belongs to. Spans
stay in memory until the run writes them out. Self times are kept in integer
nanoseconds, so layer self times plus the op spans' own remainder add up to
the traced wall time exactly.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter

# (module, attribute path, span name). The three helpers ROADMAP names are
# autsearch._refine, PermGroup._build and z4._weight_scan.
TARGETS = [
    ("framestab.autsearch", "aut_z4", "autsearch.aut_z4"),
    ("framestab.autsearch", "aut_binary", "autsearch.aut_binary"),
    ("framestab.autsearch", "automorphism_group", "autsearch.automorphism_group"),
    ("framestab.autsearch", "_refine", "autsearch._refine"),
    ("framestab.permgrp", "PermGroup.__init__", "permgrp.PermGroup"),
    ("framestab.permgrp", "PermGroup._build", "permgrp.PermGroup._build"),
    ("framestab.permgrp", "PermGroup.extended", "permgrp.PermGroup.extended"),
    ("framestab.permgrp", "subgroup_search", "permgrp.subgroup_search"),
    ("framestab.z4", "from_text", "z4.from_text"),
    ("framestab.z4", "torsion", "z4.torsion"),
    ("framestab.z4", "residue", "z4.residue"),
    ("framestab.z4", "z4_dual", "z4.z4_dual"),
    ("framestab.z4", "is_self_dual", "z4.is_self_dual"),
    ("framestab.z4", "is_type_ii", "z4.is_type_ii"),
    ("framestab.z4", "min_euclidean_weight", "z4.min_euclidean_weight"),
    ("framestab.z4", "_weight_scan", "z4._weight_scan"),
    ("framestab.matrixio", "parse_z4_matrix", "matrixio.parse_z4_matrix"),
    ("framestab.frames", "frame_report", "frames.frame_report"),
    ("framestab.frames", "structure_codes", "frames.structure_codes"),
    ("framestab.frames", "compute_p", "frames.compute_p"),
    ("framestab.frames", "enumerate_h_lattice", "frames.enumerate_h_lattice"),
    ("framestab.frames", "enumerate_h_orbifold", "frames.enumerate_h_orbifold"),
    ("framestab.gf2", "dual", "gf2.dual"),
    ("framestab.gf2", "weight_words", "gf2.weight_words"),
    ("framestab.gf2", "min_weight", "gf2.min_weight"),
]

LAYERS = ("autsearch", "permgrp", "z4", "matrixio", "frames", "gf2")

OP = "op"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (op id, span id, parent id, name, start ns, end ns)
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.recording = True
        self._stack: list[list] = []  # [span id, name, start ns, child ns]
        self._ids = itertools.count()
        self._op_id = -1
        self._after = {
            "autsearch.automorphism_group": self._count_generators,
            "z4._weight_scan": self._count_scanned_words,
            "frames.enumerate_h_lattice": self._count_h,
            "frames.enumerate_h_orbifold": self._count_h,
            "frames.frame_report": self._count_aut_c,
        }

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [next(self._ids), name, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list):
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.self_ns[name] += duration - child
        self.calls[name] += 1
        self.spans.append(
            (self._op_id, span_id, None if parent is None else parent[0], name, start, end)
        )

    def op(self, op_id: int, fn, *args):
        """Run one op as a root span."""
        self._op_id = op_id
        frame = self._enter(OP)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    # -- wrappers ------------------------------------------------------------

    def install(self):
        for module_name, path, name in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original)
            setattr(owner, attr, wrapped)
            if not outer:
                self._rebind(original, wrapped)

    @staticmethod
    def _rebind(original, wrapped):
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("framestab"):
                for key, value in vars(module).items():
                    if value is original:
                        setattr(module, key, wrapped)

    def _wrap(self, name: str, original):
        after = self._after.get(name)
        enter, exit_ = self._enter, self._exit
        # an lru_cache reports its misses; a scan counts its words only on a miss
        cache_info = getattr(original, "cache_info", None)

        def wrapper(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            frame = enter(name)
            misses = cache_info().misses if cache_info else None
            try:
                result = original(*args, **kwargs)
            finally:
                exit_(frame)
            if after is not None:
                ran = misses is None or cache_info().misses > misses
                after(args, result, ran)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- exact counts at the boundaries --------------------------------------

    def _count_generators(self, args, group, ran):
        self.counts["autsearch.generators"] += len(group.generators)

    def _count_scanned_words(self, args, result, ran):
        if ran:
            self.counts["z4.weight_scan.words"] += args[0].size()

    def _count_h(self, args, result, ran):
        self.counts["frames.h_count"] += result[0]

    def _count_aut_c(self, args, report, ran):
        self.counts["frames.aut_c_ran"] += report.aut_c is not None

    # -- summary ---------------------------------------------------------------

    def layer_self_ns(self) -> dict:
        out = {layer: 0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            if name != OP:
                out[name.split(".", 1)[0]] += ns
        return out

    def wall_ns(self) -> int:
        return sum(end - start for _, _, parent, _, start, end in self.spans
                   if parent is None)
