"""Span tracing of css-lab's public functions, from outside the program.

``install`` rebinds each traced function in every css-lab module that holds
a reference to it (``css_lab.cli``, ``harness``, ``theory``, ``fusion``), so
calls through ``from .theory import qd_rayleigh``-style imports are seen too.
Each call records a span (name, start, end, parent) in flat in-memory
arrays; ``summary`` turns them into call counts and self times, where a
span's self time is its duration minus the durations of its direct children.
The program itself is not modified and its outputs do not change.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np


def _forced_cells(scenario, *args, **kwargs) -> int:
    # one draw per (trial, window event, sensor)
    return scenario.trials * scenario.history_len * scenario.num_crs


def _conventional_cells(scenario, *args, **kwargs) -> int:
    return scenario.trials * scenario.num_crs


# (span name, module holding the definition, attribute, draw-cell counter)
TARGETS = (
    ("cli.run_command", "cli", "run_command", None),
    ("harness.roc_sweep", "harness", "roc_sweep", None),
    ("harness.forced_rates", "harness", "forced_rates", _forced_cells),
    ("harness.conventional_rate", "harness", "conventional_rate", _conventional_cells),
    ("harness.expected_rho", "harness", "expected_rho", None),
    ("theory.qd_rayleigh", "theory", "qd_rayleigh", None),
    ("theory.qd_proposed_rayleigh", "theory", "qd_proposed_rayleigh", None),
    ("theory.marcum_q", "theory", "marcum_q", None),
    ("theory.qfa_approx", "theory", "qfa_approx", None),
    ("theory.qfa_proposed", "theory", "qfa_proposed", None),
    ("fusion.cfar_threshold", "fusion", "cfar_threshold", None),
)


class Tracer:
    """Records nested spans of wrapped calls in one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("q")
        self.cells: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn, cell_counter=None):
        name_id = len(self.names)
        self.names.append(name)
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        stack, cells, clock = self._stack, self.cells, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if cell_counter is not None:
                cells[name] += cell_counter(*args, **kwargs)
            index = len(starts)
            parents.append(stack[-1])
            name_ids.append(name_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per span name: calls, self seconds and drawn cells."""
        start = np.frombuffer(self.starts, dtype=np.float64)
        duration = np.frombuffer(self.ends, dtype=np.float64) - start
        parent = np.frombuffer(self.parents, dtype=np.int64)
        name_id = np.frombuffer(self.name_ids, dtype=np.int64)
        child_time = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child_time, parent[nested], duration[nested])
        width = len(self.names)
        calls = np.bincount(name_id, minlength=width)
        self_s = np.bincount(name_id, weights=duration - child_time, minlength=width)
        return {
            name: {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "cells": int(self.cells.get(name, 0)),
            }
            for i, name in enumerate(self.names)
        }

    def dump(self, path) -> None:
        """Write every span; parents index into the same arrays (-1: root)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int64),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
        )


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind it wherever css-lab's modules import it."""
    from css_lab import cli, fusion, harness, theory

    modules = {"cli": cli, "harness": harness, "theory": theory, "fusion": fusion}
    for name, home, attr, cell_counter in TARGETS:
        original = getattr(modules[home], attr)
        traced = tracer.wrap(name, original, cell_counter)
        for module in modules.values():
            if getattr(module, attr, None) is original:
                setattr(module, attr, traced)
