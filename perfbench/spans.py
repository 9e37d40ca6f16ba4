"""Spans around the calls into each gridforest layer, recorded from outside.

The package is not edited. ``installed(tracer)`` swaps a wrapper in for each
traced callable wherever the package binds it (a module that did
``from .powerflow import sample_voltages`` holds its own name), and puts the
originals back on exit.

A span is (name, start, end, parent span, pass id). Spans live in flat
arrays while the run lasts and are written out once at the end. Self time is
a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
import weakref
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# Module functions wrapped as spans named "<layer>.<function>". The methods
# MomentSet.sqdiff, MomentSet.from_samples and RadialForest.h_inverse_matrix,
# and fileio's samples reader and writer, get their own wrappers below.
TRACED_FUNCTIONS = (
    ("network", "build_forest"),
    ("powerflow", "analytic_moments"),
    ("powerflow", "sample_voltages"),
    ("structure", "recover_parent_map"),
    ("structure", "estimate_injection_stats"),
    ("structure", "solve_edge_system"),
    ("lines", "learn_structure_and_params"),
    ("lines", "estimate_edge"),
    ("missing", "learn_with_missing"),
    ("synth", "synth_layout"),
    ("synth", "draw_injections"),
    ("synth", "choose_hidden"),
)

# Learner exceptions a sweep cell can record; anything else counts as "other".
CELL_FAILURE_CLASSES = (
    "NoConsistentPlacement",
    "IncompleteCover",
    "NoRealRoot",
    "BothRootsFeasible",
    "SingularSystem",
    "other",
)

# Exact per-pass counts: the same inputs must give the same numbers.
COUNTERS = (
    "network.h_inverse_matrix.builds",
    "moments.sqdiff.calls",
    "lines.estimate_edge.calls",
    "structure.solve_edge_system.calls",
    "missing.learn_with_missing.calls",
    "experiments.cells",
    *(f"experiments.cell_failures.{c}" for c in CELL_FAILURE_CLASSES),
    "fileio.samples_rows",
)

# Self time per pass, in seconds, for these span names.
SELF_TIMES = (
    "network.h_inverse_matrix",
    "network.build_forest",
    "powerflow.analytic_moments",
    "powerflow.sample_voltages",
    "moments.from_samples",
    "moments.sqdiff",
    "structure.recover_parent_map",
    "structure.estimate_injection_stats",
    "lines.learn_structure_and_params",
    "lines.estimate_edge",
    "missing.learn_with_missing",
    "synth.synth_layout",
    "synth.draw_injections",
    "synth.choose_hidden",
    "experiments.fig4",
    "experiments.fig5",
    "fileio.save_samples",
    "fileio.load_samples",
    "cli.simulate",
    "cli.learn",
)

# Counters derived from the number of spans of one name.
_CALL_COUNTERS = {
    "moments.sqdiff.calls": "moments.sqdiff",
    "lines.estimate_edge.calls": "lines.estimate_edge",
    "structure.solve_edge_system.calls": "structure.solve_edge_system",
    "missing.learn_with_missing.calls": "missing.learn_with_missing",
}


class NullTracer:
    """Tracing off: spans opened by the workloads cost a no-op context."""

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, n=1):
        pass


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.pass_of = array("l")
        self.pass_id = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        # per MomentSet: pairs already asked; per forest: kinds already built
        self._asked = weakref.WeakKeyDictionary()
        self._built = weakref.WeakKeyDictionary()

    # -- recording ------------------------------------------------------------------

    def begin_pass(self, pass_id: int):
        self.pass_id = pass_id

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_of.append(self.pass_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name, n=1):
        self.counts[self.pass_id][name] += n

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- results ----------------------------------------------------------------------

    def per_pass(self) -> dict[int, dict]:
        """pass id -> {"self_s": {span name: seconds}, "counts": {counter: n}}."""
        selfs = self_times(self.start, self.end, self.parent)
        out: dict[int, dict] = {}
        for i, s in enumerate(selfs):
            p = self.pass_of[i]
            rec = out.setdefault(p, {"self_s": defaultdict(float), "calls": Counter()})
            name = self.names[self.name_id[i]]
            rec["self_s"][name] += s
            rec["calls"][name] += 1
        for p, rec in out.items():
            counts = {name: 0 for name in COUNTERS}
            counts.update(self.counts.get(p, {}))
            for counter, span_name in _CALL_COUNTERS.items():
                counts[counter] = rec["calls"][span_name]
            rec["counts"] = counts
        return out

    def write(self, path: Path):
        """All spans as CSV: id,name,start_s,end_s,parent,pass."""
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,pass\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.pass_of[i]}\n"
                )


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[p] -= covered
    return out


# -- installing the wrappers ------------------------------------------------------------


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if name == "gridforest" or name.startswith("gridforest.")
    ]


def _rebind(fn, replacement, undo):
    """Point every package-level name bound to ``fn`` at ``replacement``."""
    for mod in _package_modules():
        for attr, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, fn))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced callable for the duration of the block."""
    import gridforest.fileio as fileio
    from gridforest.moments import MomentSet
    from gridforest.network import RadialForest

    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _package_modules()}
    undo: list[tuple] = []
    try:
        for layer, fname in TRACED_FUNCTIONS:
            fn = getattr(mods[layer], fname)
            _rebind(fn, tracer.wrap(f"{layer}.{fname}", fn), undo)

        save, load = fileio.save_samples, fileio.load_samples

        def save_samples(path, samples):
            idx = tracer.open("fileio.save_samples")
            try:
                save(path, samples)
            finally:
                tracer.close(idx)
            tracer.count("fileio.samples_rows", samples.m * len(samples.node_ids))
            tracer.count("fileio.save_samples.bytes", Path(path).stat().st_size)

        def load_samples(path):
            tracer.count("fileio.load_samples.bytes", Path(path).stat().st_size)
            idx = tracer.open("fileio.load_samples")
            try:
                return load(path)
            finally:
                tracer.close(idx)

        _rebind(save, save_samples, undo)
        _rebind(load, load_samples, undo)

        sqdiff = MomentSet.sqdiff

        def traced_sqdiff(momset, channel, a, b):
            asked = tracer._asked.get(momset)
            if asked is None:
                asked = tracer._asked[momset] = set()
            key = (channel, a, b) if a <= b else (channel, b, a)
            if key in asked:
                tracer.count("moments.sqdiff.repeats")
            else:
                asked.add(key)
            idx = tracer.open("moments.sqdiff")
            try:
                return sqdiff(momset, channel, a, b)
            finally:
                tracer.close(idx)

        hinv = RadialForest.h_inverse_matrix

        def traced_hinv(forest, kind):
            built = tracer._built.get(forest)
            if built is None:
                built = tracer._built[forest] = set()
            if kind not in built:
                built.add(kind)
                tracer.count("network.h_inverse_matrix.builds")
            idx = tracer.open("network.h_inverse_matrix")
            try:
                return hinv(forest, kind)
            finally:
                tracer.close(idx)

        from_samples = MomentSet.__dict__["from_samples"]
        MomentSet.sqdiff = traced_sqdiff
        RadialForest.h_inverse_matrix = traced_hinv
        MomentSet.from_samples = classmethod(
            tracer.wrap("moments.from_samples", from_samples.__func__)
        )
        undo += [
            (MomentSet, "sqdiff", sqdiff),
            (RadialForest, "h_inverse_matrix", hinv),
            (MomentSet, "from_samples", from_samples),
        ]
        yield tracer
    finally:
        for obj, attr, val in reversed(undo):
            setattr(obj, attr, val)


def layer_metrics(tracer: Tracer, traced_passes) -> tuple[dict, list[dict]]:
    """Per-layer metrics as medians over the (non-empty) traced passes, plus
    each pass's exact counts for the repeat check."""
    per = tracer.per_pass()
    empty = {"self_s": {}, "counts": {name: 0 for name in COUNTERS}}
    recs = [per.get(p, empty) for p in traced_passes]
    out: dict[str, float] = {}
    for name in SELF_TIMES:
        out[f"{name}.s"] = statistics.median([r["self_s"].get(name, 0.0) for r in recs])
    counts = [r["counts"] for r in recs]
    first = counts[0]
    for name in COUNTERS:
        out[name] = first[name]
    calls = out["moments.sqdiff.calls"]
    out["moments.sqdiff.repeat_ratio"] = first.get("moments.sqdiff.repeats", 0) / calls if calls else 0.0
    for op in ("save_samples", "load_samples"):
        mb = first.get(f"fileio.{op}.bytes", 0) / 1e6
        secs = out[f"fileio.{op}.s"]
        out[f"fileio.{op}.mb_per_s"] = mb / secs if secs > 0 else 0.0
    return out, counts
