"""Spans around the public functions of each enaqt layer, recorded from outside.

The program itself is not edited: `Tracer.install` replaces every binding of
each listed function in every loaded `enaqt` module (modules import some of
them by name, e.g. `fmo.eigh` and `circuit.enaqt_step`) with a wrapper that
records one span per call, and wraps `QubitLayout.n_system` at the class.
`uninstall` puts the originals back. Spans stay in memory until written out.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns

LAYERS = {
    "cli": ("main", "build_parser"),
    "fmo": ("load_model", "exciton_basis", "jump_rates", "thermal_rate_matrix",
            "transfer_efficiency"),
    "kernel": ("build_evolution_operators", "enaqt_step", "tunable_step",
               "evolve_trajectory"),
    "lindblad": ("lindblad_rhs", "rk4_integrate", "convergence_report"),
    "circuit": ("build_step_circuit", "apply_circuit", "gate_matrix",
                "sequential_kraus_step", "channel_choi", "channel_transfer_matrix",
                "compare_step_channels"),
    "linalg": ("eigh", "evolution_unitary"),
}
# a property recomputed through log2 on every access
PROPERTY = ("circuit", "QubitLayout", "n_system")

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns) + (
    f"{PROPERTY[0]}.{PROPERTY[2]}",
)


class Tracer:
    """Records (name, start_ns, end_ns, parent index, command id) per call."""

    def __init__(self):
        self.spans = []
        self.command_id = -1
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.command_id)

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "enaqt" or key.startswith("enaqt.")]
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"enaqt.{layer}")
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        layer, cls_name, attr = PROPERTY
        cls = getattr(importlib.import_module(f"enaqt.{layer}"), cls_name)
        original = vars(cls)[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, property(self._wrap(f"{layer}.{attr}", original.fget)))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Per span name: calls, total seconds, and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; the program is single-threaded, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {name: [0, 0, 0] for name in SPAN_NAMES}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            t = totals[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child_ns[i]
        return {name: {"calls": c, "s": ns / 1e9, "self_s": self_ns / 1e9}
                for name, (c, ns, self_ns) in totals.items()}

    def write(self, path):
        """All spans as CSV: id, name, start_ns, end_ns, parent id, command id."""
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,command\n")
            for i, (name, start, end, parent, cmd) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{cmd}\n")


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced pass, by the names the benchmark reports."""
    out = {}
    for name, s in summary.items():
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.s"] = s["s"]
        out[f"{name}.self_s"] = s["self_s"]
    # self times that carry a layer's own work, under their own names
    out["cli.self_s"] = summary["cli.main"]["self_s"]
    out["kernel.record_s"] = summary["kernel.evolve_trajectory"]["self_s"]
    out["lindblad.rk4_self_s"] = summary["lindblad.rk4_integrate"]["self_s"]
    steps = summary["kernel.tunable_step"]["calls"]
    rows = steps + summary["kernel.evolve_trajectory"]["calls"]
    out["kernel.step_us"] = 1e6 * summary["kernel.tunable_step"]["s"] / steps if steps else 0.0
    out["kernel.record_us"] = 1e6 * out["kernel.record_s"] / rows if rows else 0.0
    return out
