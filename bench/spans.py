"""Span recorder and function wrappers for the traced benchmark run.

The benchmark wraps the public functions of the ``aesa_chain`` modules from
outside the package: every module namespace that binds a traced function
gets the wrapper, so calls made through ``from .x import f`` are seen too.
Spans stay in memory and are written as JSON lines when the run ends.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

#: traced functions, by layer: (module, function)
TRACED = (
    ("config", "resolve_config"),
    ("scene", "simulate_dwell"), ("scene", "simulate_isar_sequence"),
    ("rdproc", "range_compress"), ("rdproc", "doppler_process"),
    ("beamform", "apply_beamformer"), ("beamform", "estimate_covariance"),
    ("beamform", "covariance_from_snapshots"), ("beamform", "mvdr_weights"),
    ("beamform", "beamscan"), ("beamform", "rejection_db"),
    ("detect", "cfar_detect"), ("detect", "select_training_subset"),
    ("detect", "music_spectrum"), ("detect", "pick_peaks"),
    ("isar", "extract_target_history"), ("isar", "range_align"),
    ("isar", "icba_autofocus"), ("isar", "form_image"),
    ("experiments", "run_experiment"), ("experiments", "write_report"),
    ("gridio", "write_grid"), ("gridio", "write_csv"),
)

#: functions counted without a span: (module, function) -> (counter, credit)
#: where credit "self" books the call under the function's own name and
#: "span" books it under the innermost open span
COUNTED = {
    ("geometry", "subarray_steering"): ("calls", "self"),
    ("isar", "image_contrast"): ("contrast_evals", "span"),
}

#: numpy.fft transforms; each call is credited to the innermost open span
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfftn", "irfftn", "hfft", "ihfft")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: int | None


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover.

    Children may nest or overlap each other; the covered part is the union
    of their intervals, clipped to the parent's own interval.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children[s.id]):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def array_bytes(value, _depth: int = 0, _seen=None) -> int:
    """Computed size of the arrays a value holds (nbytes, not measured)."""
    seen = set() if _seen is None else _seen
    if id(value) in seen or _depth > 4:
        return 0
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (list, tuple)):
        return sum(array_bytes(v, _depth + 1, seen) for v in value)
    if isinstance(value, dict):
        return sum(array_bytes(v, _depth + 1, seen) for v in value.values())
    if is_dataclass(value) and not isinstance(value, type):
        return sum(array_bytes(getattr(value, f.name), _depth + 1, seen)
                   for f in fields(value))
    return 0


class Tracer:
    """In-memory spans and counters, keyed by the unit being run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)   # (unit, name, counter) -> value
        self.unit = None
        self._stack = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), float("nan"), parent, self.unit)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def count(self, name: str, counter: str, n: float = 1) -> None:
        self.counts[(self.unit, name, counter)] += n

    def count_in_span(self, counter: str, n: float = 1) -> None:
        if self._stack:
            self.count(self._stack[-1].name, counter, n)

    def per_unit(self, units) -> dict:
        """Mean over ``units`` of self time and every counter, by name."""
        units = set(units)
        totals = defaultdict(float)
        st = self_times(self.spans)
        for s in self.spans:
            if s.unit in units:
                totals[(s.name, "self_s")] += st[s.id]
                totals[(s.name, "calls")] += 1
        for (unit, name, counter), v in self.counts.items():
            if unit in units:
                totals[(name, counter)] += v
        n = max(len(units), 1)
        return {f"{name}.{counter}": v / n for (name, counter), v in totals.items()}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "unit": s.unit}) + "\n")


def _extras(name: str, arguments: dict, result) -> dict:
    if name == "detect.cfar_detect":
        n_r, n_d = np.shape(arguments["power_map"])
        half = arguments["n_train"] + arguments["n_guard"]
        return {"cells": max(n_r - 2 * half, 0) * n_d, "hits": len(result)}
    if name == "isar.range_align":
        return {"profiles": arguments["history"].values.shape[0]}
    if name == "experiments.write_report":
        return {"files": len(result),
                "bytes_written": sum(p.stat().st_size for p in result)}
    return {}


def _span_wrapper(tracer: Tracer, name: str, fn):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        tracer.count(name, "bytes_out", array_bytes(result))
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        for counter, v in _extras(name, bound.arguments, result).items():
            tracer.count(name, counter, v)
        return result
    return wrapper


def _count_wrapper(tracer: Tracer, name: str, counter: str, credit: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if credit == "self":
            tracer.count(name, counter)
        else:
            tracer.count_in_span(counter)
        return fn(*args, **kwargs)
    return wrapper


def _fft_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.count_in_span("fft_calls")
        tracer.count_in_span("fft_points", result.size)
        return result
    return wrapper


def install(tracer: Tracer, package) -> callable:
    """Wrap the traced functions everywhere they are bound; returns an undo."""
    replace = {}
    for mod, fn_name in TRACED:
        fn = getattr(importlib.import_module(f"{package.__name__}.{mod}"), fn_name)
        replace[id(fn)] = (fn, _span_wrapper(tracer, f"{mod}.{fn_name}", fn))
    for (mod, fn_name), (counter, credit) in COUNTED.items():
        fn = getattr(importlib.import_module(f"{package.__name__}.{mod}"), fn_name)
        replace[id(fn)] = (fn, _count_wrapper(tracer, f"{mod}.{fn_name}",
                                              counter, credit, fn))
    undo = []
    prefix = package.__name__ + "."
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package.__name__
                                  or mod_name.startswith(prefix)):
            continue
        for attr, value in list(vars(module).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))
    for attr in FFT_FUNCTIONS:
        fn = getattr(np.fft, attr)
        setattr(np.fft, attr, _fft_wrapper(tracer, fn))
        undo.append((np.fft, attr, fn))

    def uninstall():
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)
    return uninstall
