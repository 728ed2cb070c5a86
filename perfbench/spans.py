"""Spans around calls into sqmlab's public functions, for the traced run.

`Tracer.install` swaps each boundary below for a wrapper that records
a span — name, start, end, parent span and the check that caused it —
in memory; `uninstall` puts the originals back.  Spans are written out
when the run ends.  A layer's self time is its spans' duration minus
the time covered by their child spans.

The wrappers sit on module attributes, so they see every call made
through the module (`timeslab.build_action(...)`), from the benchmark
or from inside sqmlab.  A call that a module makes through a name it
bound with `from .x import f` bypasses the wrapper and is counted in
its caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable

from sqmlab.experiments import DEFAULTS


def _fixed(name: str) -> Callable:
    return lambda args, kwargs: name


def _experiment_name(args, kwargs) -> str:
    name, params = args[0], (args[1] if len(args) > 1 else kwargs.get("params")) or {}
    if name == "smatrix" and params.get("order") == 2:
        name = "smatrix-o2"
    return f"experiments.run_experiment.{name}"


def _smatrix_order(args, kwargs) -> str:
    order = args[4] if len(args) > 4 else kwargs["order"]
    return f"wick.smatrix_element.o{order}"


def _anomaly_engine(args, kwargs) -> str:
    engine = args[2] if len(args) > 2 else kwargs.get("engine", "auto")
    return f"fock.anomaly_mismatch.{engine}"


EXPERIMENTS = sorted([*DEFAULTS, "smatrix-o2"])


def _plain(module: str, *paths: str) -> list[tuple]:
    return [(module, path, _fixed(f"{module}.{path}"), [f"{module}.{path}"]) for path in paths]


# (module of sqmlab, attribute path in it, span namer, layer names the namer yields)
BOUNDARIES = [
    *_plain("cli", "main"),
    ("cli", "run_experiment", _experiment_name,
     [f"experiments.run_experiment.{e}" for e in EXPERIMENTS]),
    *_plain("timeslab", "build_action", "trace_theorem_lhs", "constraint_expectation"),
    *_plain("fermions", "fermionic_cycle", "jw_annihilator", "parity_operator"),
    *_plain("spacetime", "build_R", "marginal", "causality_witness",
            "power_and_pseudoentropy", "reduce_to_region"),
    ("wick", "smatrix_element", _smatrix_order,
     ["wick.smatrix_element.o1", "wick.smatrix_element.o2"]),
    ("fock", "anomaly_mismatch", _anomaly_engine,
     ["fock.anomaly_mismatch.dense", "fock.anomaly_mismatch.sector"]),
    *_plain("gaussian", "feynman_propagator_grid", "tau_mode_correlator"),
    # oracle side: should not move when a slab-side engine changes
    *_plain("oracles", "timeordered_two_point_ed", "dyson_smatrix_oracle",
            "dyson_pair_channel_amplitudes", "pair_channel_vertex"),
    *_plain("timeslab", "trace_theorem_rhs"),
    *_plain("spacetime", "causality_witness_oracle", "SpacetimeState.evolved"),
]
LAYERS = [layer for *_, layers in BOUNDARIES for layer in layers]


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, check id]
        self.check = -1  # id of the check being run; spans of one check share it
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.check])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn: Callable, namer: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(namer(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def install(self) -> None:
        """Wrap every boundary of the imported sqmlab."""
        for module, path, namer, _ in BOUNDARIES:
            owner = importlib.import_module(f"sqmlab.{module}")
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, namer))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds) over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, tuple[int, float]] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            calls, busy = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, busy + (end - start) - covered)
        return totals
