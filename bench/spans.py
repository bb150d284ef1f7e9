"""Span recorder that times entlab's layers from outside the library.

The library calls its layers through module attributes (``measures.pt_eigenvalues``,
``sampler.random_density_batch``, ``cmat.psd_sqrt`` ...) and through module
globals, which are the same dictionary.  ``Tracer.install`` swaps those
attributes, plus two ``RngStream`` methods and ``DensityMatrix.__post_init__``
on their classes, for wrappers that record one span per call.  ``uninstall``
puts the originals back.  Nothing under ``src/`` is edited.

A span is ``[name, start_ns, end_ns, parent, thread_id, states]``.  Spans stay
in memory until the pass that made them ends; ``drain`` then appends them to
the span log.  A span opened in a
worker thread with nothing open in that thread takes as parent the innermost
span open in the thread that installed the tracer, which is where
``run_experiment`` hands shards to its pool.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

SPAN_CSV_HEADER = "id,name,start_ns,end_ns,parent,thread,states\n"

def _stack_len(args, kwargs) -> int:
    """Number of 4x4 matrices in the first argument (a matrix or a stack)."""
    ms = args[0] if args else next(iter(kwargs.values()))
    shape = np.shape(ms)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _second_arg(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs["n"])


def layer_points(entlab) -> list:
    """(owner, attribute, span name, state counter) for every traced boundary."""
    cmat, measures = entlab.cmat, entlab.measures
    sampler, experiment, qstate = entlab.sampler, entlab.experiment, entlab.qstate
    return [
        (sampler.RngStream, "uniforms", "sampler.uniforms", None),
        (sampler.RngStream, "subsample_indices", "sampler.subsample_indices", None),
        (sampler, "random_density_batch", "sampler.random_density_batch", _second_arg),
        (cmat, "eigvalsh_desc", "cmat.eigvalsh_desc", _stack_len),
        (cmat, "psd_sqrt", "cmat.psd_sqrt", _stack_len),
        (cmat, "hermiticity_defect", "cmat.hermiticity_defect", None),
        (measures, "pt_eigenvalues", "measures.pt_eigenvalues", _stack_len),
        (measures, "concurrence_batch", "measures.concurrence_batch", _stack_len),
        (measures, "measure_report", "measures.measure_report", None),
        (experiment, "run_experiment", "experiment.run_experiment", None),
        (experiment, "_run_shard", "experiment.shard", None),
        (experiment, "write_csvs", "experiment.write_csvs", None),
        (qstate, "save_states", "qstate.save_states", None),
        (qstate, "load_states", "qstate.load_states", None),
        (qstate.DensityMatrix, "__post_init__", "qstate.validate", None),
    ]


class Tracer:
    """Records spans while ``active``; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[list] = []
        self._undo: list[tuple] = []
        self._written = 0

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, states: int) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._home_stack[-1] if self._home_stack else None
        span = [name, time.perf_counter_ns(), 0, parent, threading.get_ident(), states]
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """Span around a call the benchmark makes itself (e.g. ``cli.main``)."""
        if not self.active:
            yield
            return
        span = self._open(name, 0)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, original, name: str, counter):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span = tracer._open(name, counter(args, kwargs) if counter else 0)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def install(self, entlab) -> None:
        for owner, attr, name, counter in layer_points(entlab):
            original = owner.__dict__.get(attr)
            if original is None:  # boundary renamed or removed: leave it untraced
                continue
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def drain(self, fh) -> None:
        """Append the recorded spans to fh as rows under SPAN_CSV_HEADER and forget them."""
        index = {id(s): self._written + k for k, s in enumerate(self.spans)}
        for span in self.spans:
            name, start, end, parent, tid, states = span
            pid = index.get(id(parent), -1)
            fh.write(f"{index[id(span)]},{name},{start},{end},{pid},{tid},{states}\n")
        self._written += len(self.spans)
        self.spans = []


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of the intervals."""
    covered = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return covered


class SpanStats:
    """Per-name call counts, states, inclusive and self time over a set of spans."""

    def __init__(self, spans: list[list]):
        children = defaultdict(list)
        for s in spans:
            if s[3] is not None:
                children[id(s[3])].append((s[1], s[2]))
        self.calls = defaultdict(int)
        self.states = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        for s in spans:
            name, start, end = s[0], s[1], s[2]
            self.calls[name] += 1
            self.states[name] += s[5]
            self.total_ns[name] += end - start
            self.self_ns[name] += end - start - _covered(start, end, children.get(id(s), []))

    def total_s(self, name: str) -> float:
        return self.total_ns[name] * 1e-9

    def self_s(self, name: str) -> float:
        return self.self_ns[name] * 1e-9
