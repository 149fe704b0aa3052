"""
Per-layer tracing for the benchmark's traced run.

Wrappers are installed around public names only, and only while a `Tracer`
is installed.  A wrapper replaces the name wherever a caller looks it up:
every loaded `postdist` module (and `numpy` / `numpy.linalg`) whose attribute
is the original function gets the wrapper, so names bound with
`from ... import` are caught as well as module-attribute calls.

Each wrapped call records one span (name, start, end, parent).  Spans stay
in memory and are written by `write_spans` when the run ends.  Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Layer -> (module, public names).  Private optimizer helpers are left out on
# purpose: they are expected to be renamed by later refactors.
LAYER_NAMES = {
    "numpy.eig": ("numpy.linalg", ("eigvalsh", "eigh", "svd")),
    "numpy.einsum": ("numpy", ("einsum",)),
    "linalg": ("postdist.linalg", ("trace_norm", "operator_norm", "partial_trace", "hermitian_eig")),
    "channels": (
        "postdist.channels",
        ("random_channel", "compose", "tensor_with_identity", "scale", "isometry", "apply", "validate"),
    ),
    "distances.estimate": (
        "postdist.distances",
        (
            "distance",
            "trace_distance_states",
            "trace_distance_operators",
            "diamond_distance",
            "postselected_trace_distance",
            "postselected_diamond_distance",
        ),
    ),
    "distances.witness": ("postdist.distances", ("evaluate_witness", "renormalized_distance")),
    "distances.oracle": ("postdist.distances", ("dense_oracle",)),
    "theorems": ("postdist.theorems", None),  # every public function defined there
    "suites": ("postdist.suites", ("run_statement",)),
}

MEASURE_OF = {
    "trace_distance_states": "dtrD",
    "trace_distance_operators": "dtr",
    "diamond_distance": "diamond",
    "postselected_trace_distance": "hat-tr",
    "postselected_diamond_distance": "hat-diamond",
}


def _matrices(a) -> int:
    shape = getattr(a, "shape", ())
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0))


class Tracer:
    """In-memory span recorder with per-layer, per-cell and per-statement totals."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.unmeasured: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self.reset_totals()

    def reset_totals(self) -> None:
        # Open spans: [span index, child seconds, starts a new estimate, saved (cell, sid)].
        self._stack: list[list] = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)  # eig matrices, einsum bytes, converged
        self.cell_s = defaultdict(float)
        self.cell_eig = defaultdict(int)
        self.sid_s = defaultdict(float)
        self.sid_eig = defaultdict(int)
        self._cell = None
        self._sid = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every name in LAYER_NAMES where callers look it up."""
        for layer, (modname, names) in LAYER_NAMES.items():
            module = sys.modules.get(modname)
            if module is None:
                self.unmeasured.append(modname)
                continue
            if names is None:
                names = tuple(
                    n for n, obj in vars(module).items()
                    if not n.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == modname
                )
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    self.unmeasured.append(f"{modname}.{name}")
                    continue
                wrapper = self._wrap(layer, name, original)
                for holder, attr in _bindings(original):
                    self._installed.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        span_name = f"{layer}:{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(layer, name, span_name, args)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(layer, args, None)
                raise
            tracer._exit(layer, args, result)
            return result

        return wrapper

    def _enter(self, layer, name, span_name, args):
        nid = self._name_ids.get(span_name)
        if nid is None:
            nid = self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        saved = (self._cell, self._sid)
        outer_estimate = layer == "distances.estimate" and self._cell is None
        if outer_estimate:
            measure = args[0] if name == "distance" else MEASURE_OF.get(name)
            chan = args[1] if name == "distance" else args[0]
            self._cell = f"{measure}.d{getattr(chan, 'dim_in', '?')}"
        elif layer == "suites" and args:
            self._sid = str(args[0])
        self._stack.append([idx, 0.0, outer_estimate, saved])
        self.start.append(time.perf_counter())

    def _exit(self, layer, args, result):
        t = time.perf_counter()
        idx, child_s, outer_estimate, saved = self._stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        self.self_s[layer] += dur - child_s
        if layer == "distances.estimate" and not outer_estimate:
            return  # an estimate nested in another estimate is not a new estimate
        self.calls[layer] += 1
        if layer == "numpy.eig":
            m = _matrices(args[0]) if args else 0
            self.counts["eig_matrices"] += m
            if self._cell is not None:
                self.cell_eig[self._cell] += m
            if self._sid is not None:
                self.sid_eig[self._sid] += m
        elif layer == "numpy.einsum":
            self.counts["einsum_bytes"] += sum(_nbytes(a) for a in args[1:]) + _nbytes(result)
        elif outer_estimate:
            self.cell_s[self._cell] += dur
            self.counts["converged"] += bool(getattr(result, "converged", False))
        elif layer == "suites" and self._sid is not None:
            self.sid_s[self._sid] += dur
        self._cell, self._sid = saved

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """Deterministic counts and self/inclusive seconds since the last reset."""
        est = self.calls["distances.estimate"]
        out = {
            "numpy.eig_calls": self.calls["numpy.eig"],
            "numpy.eig_matrices": self.counts["eig_matrices"],
            "numpy.eig_s": self.self_s["numpy.eig"],
            "numpy.einsum_calls": self.calls["numpy.einsum"],
            "numpy.einsum_bytes": self.counts["einsum_bytes"],
            "numpy.einsum_s": self.self_s["numpy.einsum"],
            "linalg.calls": self.calls["linalg"],
            "linalg.s": self.self_s["linalg"],
            "channels.calls": self.calls["channels"],
            "channels.s": self.self_s["channels"],
            "distances.estimate_calls": est,
            "distances.estimate_self_s": self.self_s["distances.estimate"],
            "distances.converged_ratio": self.counts["converged"] / est if est else 0.0,
            "distances.witness_calls": self.calls["distances.witness"],
            "distances.witness_s": self.self_s["distances.witness"],
            "distances.oracle_s": self.self_s["distances.oracle"],
            "theorems.calls": self.calls["theorems"],
            "theorems.self_s": self.self_s["theorems"],
        }
        for cell, s in self.cell_s.items():
            out[f"distances.{cell}.s"] = s
        for cell, m in self.cell_eig.items():
            out[f"distances.{cell}.eig_matrices"] = m
        for sid, s in self.sid_s.items():
            out[f"suites.{sid}.s"] = s
        for sid, m in self.sid_eig.items():
            out[f"suites.{sid}.eig_matrices"] = m
        return out

    def layer_self_s(self) -> float:
        return sum(self.self_s.values())

    def write_spans(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _bindings(original) -> list[tuple[object, str]]:
    """Every (module, attribute) through which postdist can reach `original`."""
    found = []
    for modname, module in list(sys.modules.items()):
        if module is None:
            continue
        if modname in ("numpy", "numpy.linalg") or modname.split(".")[0] == "postdist":
            found.extend((module, attr) for attr, v in list(vars(module).items()) if v is original)
    return found
