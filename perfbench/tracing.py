"""Spans and counts at the module boundaries of ``tcfbsde``, from outside.

The package has no instrumentation of its own, so the traced run wraps the
calls into each module from here.  A wrapper is installed under every name
that binds the wrapped object in any loaded ``tcfbsde`` module, because
``cash`` and ``smp`` import ``_Batch`` and ``_batch_cost`` from ``fbsde``
directly; methods are wrapped on their class.  A target that the package no
longer defines is listed as absent rather than raising, so the benchmark
keeps running across refactors.

Spans stay in memory while the benchmark runs.  Each records its layer, its
parent span, its start and end, and the phase (set-up or operation) it ran
in.  A span's self time is its duration minus the time its child spans
cover; the program is single-threaded, so children nest inside their parent
and never overlap.
"""

import contextlib
import functools
import gzip
import json
import sys
import time

import numpy as np

# (module, attribute, layer).  "Class.method" wraps a method on its class.
# Two attributes may feed one layer: smp.expansion is Gateaux plus remainder.
TARGETS = [
    ("time_change", "sample_subordinator", "time_change.sample_subordinator"),
    ("time_change", "invert_subordinator", "time_change.invert_subordinator"),
    ("noise", "LevyJumpSpec.quadrature", "noise.quadrature"),
    ("noise", "sample_brownian", "noise.sample_brownian"),
    ("noise", "sample_jumps", "noise.sample_jumps"),
    ("seeding", "stream", "seeding.stream"),
    ("fbsde", "make_ensemble", "fbsde.make_ensemble"),
    ("fbsde", "_Batch.__init__", "fbsde.batch_pack"),
    ("fbsde", "_forward_batch", "fbsde.forward"),
    ("fbsde", "_probe_affine", "fbsde.probe_affine"),
    ("fbsde", "_affine_backward", "fbsde.affine_backward"),
    ("fbsde", "_lsmc_backward", "fbsde.lsmc_backward"),
    ("fbsde", "_batch_cost", "fbsde.batch_cost"),
    ("fbsde", "evaluate_cost", "fbsde.evaluate_cost"),
    ("smp", "_padded_state", "smp.padded_state"),
    ("smp", "_variational_batch", "smp.variational"),
    ("smp", "check_necessary_condition", "smp.necessary_condition"),
    ("smp", "gateaux_consistency_check", "smp.expansion"),
    ("smp", "remainder_convergence_check", "smp.expansion"),
    ("cash", "cash_adjoints", "cash.adjoints"),
    ("cash", "cash_optimal_control", "cash.optimal_control"),
    ("cash", "_solved_ensemble", "cash.solved_ensemble"),
    ("cash", "certify_optimality", "cash.certify"),
]
LAYERS = list(dict.fromkeys(layer for _, _, layer in TARGETS))

SETUP, OP = 0, 1
ROOTS = {SETUP: "bench.setup", OP: "bench.op"}
SPAN_NAMES = LAYERS + list(ROOTS.values())


def _count_steps(counts, args, result):
    counts["time_change.steps_sampled"] += int(result.values.size - 1)


def _count_events(counts, args, result):
    counts["noise.jump_events"] += int(result.times.size)


def _count_cells(counts, args, result):
    batch = args[0]
    counts["fbsde.real_cells"] += int(np.sum(batch.K))
    counts["fbsde.padded_cells"] += int(batch.N) * int(batch.Kmax)


# counts read off a layer's arguments or result after each call
COUNTERS = {
    "time_change.sample_subordinator": _count_steps,
    "noise.sample_jumps": _count_events,
    "fbsde.batch_pack": _count_cells,
}
COUNTS = ["time_change.steps_sampled", "noise.jump_events",
          "fbsde.real_cells", "fbsde.padded_cells"]


class Tracer:
    """Span recorder; ``installed()`` wraps the targets for a with-block."""

    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.layer = []
        self.parent = []
        self.start = []
        self.end = []
        self.phase = []
        self.stack = [-1]
        self.counts = [dict.fromkeys(COUNTS, 0), dict.fromkeys(COUNTS, 0)]
        self.current_phase = OP
        self.absent = []
        self.broken_counters = set()

    # -------------------------------------------------------------- spans

    def _enter(self, layer_id):
        idx = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self.stack[-1])
        self.phase.append(self.current_phase)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self, phase):
        """Span around one set-up or one operation of the benchmark."""
        self.current_phase = phase
        idx = self._enter(self.layer_ids[ROOTS[phase]])
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, fn, layer):
        layer_id = self.layer_ids[layer]
        counter = COUNTERS.get(layer)
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(idx)
            if counter is not None and layer not in self.broken_counters:
                try:
                    counter(self.counts[self.current_phase], args, result)
                except (AttributeError, TypeError, IndexError):
                    # the package changed the object the count is read from
                    self.broken_counters.add(layer)
            return result

        return traced

    # ---------------------------------------------------------- installing

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target the package still defines; restore on exit."""
        self.absent = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "tcfbsde" or name.startswith("tcfbsde."))]
        undo = []

        def bind(obj, name, value):
            undo.append((obj, name, obj.__dict__[name]))
            setattr(obj, name, value)

        try:
            for mod_name, attr, layer in TARGETS:
                home = sys.modules.get(f"tcfbsde.{mod_name}")
                owner_name, _, member = attr.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                orig = getattr(owner, member, None) if owner is not None else None
                if orig is None:
                    self.absent.append(f"{mod_name}.{attr}")
                    continue
                wrapped = self._wrap(orig, layer)
                if owner_name:
                    bind(owner, member, wrapped)
                    continue
                for mod in modules:
                    for name, val in list(vars(mod).items()):
                        if val is orig:
                            bind(mod, name, wrapped)
            yield self
        finally:
            for obj, name, value in reversed(undo):
                setattr(obj, name, value)

    # ----------------------------------------------------------- reporting

    def self_times(self):
        """(layer, parent, phase, duration, self time) arrays of all spans."""
        layer = np.asarray(self.layer, dtype=int)
        parent = np.asarray(self.parent, dtype=int)
        phase = np.asarray(self.phase, dtype=int)
        dur = np.asarray(self.end) - np.asarray(self.start)
        own = dur.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child], dur[child])
        return layer, parent, phase, dur, own

    def outermost(self):
        """True for spans with no ancestor of the same layer (busy time)."""
        out = np.ones(len(self.layer), dtype=bool)
        for i, p in enumerate(self.parent):
            while p >= 0:
                if self.layer[p] == self.layer[i]:
                    out[i] = False
                    break
                p = self.parent[p]
        return out

    def summary(self, n_ops):
        """Per-operation layer metrics over the spans of the OP phase."""
        layer, parent, phase, dur, own = self.self_times()
        busy = self.outermost()
        op = phase == OP
        metrics = {}
        for name in LAYERS + [ROOTS[OP]]:
            sel = op & (layer == self.layer_ids[name])
            metrics[f"{name}.s"] = float(dur[sel & busy].sum()) / n_ops
            metrics[f"{name}.self_s"] = float(own[sel].sum()) / n_ops
            metrics[f"{name}.calls"] = int(sel.sum()) / n_ops
        c = self.counts[OP]
        metrics["time_change.steps_sampled"] = c["time_change.steps_sampled"] / n_ops
        metrics["noise.jump_events"] = c["noise.jump_events"] / n_ops
        metrics["fbsde.padded_cells"] = c["fbsde.padded_cells"] / n_ops
        metrics["fbsde.padding_efficiency"] = (
            c["fbsde.real_cells"] / c["fbsde.padded_cells"]
            if c["fbsde.padded_cells"] else 0.0)
        roots = op & (parent < 0)
        self_sum = float(own[op].sum())
        root_sum = float(dur[roots].sum())
        return metrics, self_sum, root_sum

    def write(self, path, extra):
        """Write every span and the run's metadata as gzipped JSON."""
        layer, parent, phase, dur, own = self.self_times()
        t0 = self.start[0] if self.start else 0.0
        doc = dict(extra, layers=SPAN_NAMES, absent=self.absent,
                   broken_counters=sorted(self.broken_counters),
                   counts={"setup": self.counts[SETUP], "op": self.counts[OP]},
                   spans={"layer": layer.tolist(), "parent": parent.tolist(),
                          "phase": phase.tolist(),
                          "start_s": [round(s - t0, 9) for s in self.start],
                          "duration_s": dur.tolist(), "self_s": own.tolist()})
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
