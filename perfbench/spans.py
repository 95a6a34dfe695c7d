"""Spans recorded from outside the program, and the wrappers that record them.

A probe names one attribute to replace while tracing: a name a module imports
from the next layer (``radarpose.scene.synthesize_frame``), a module's own
function reached through its globals (``radarpose.scene.pose_at``), or a
``Tensor`` method. Each call through a wrapped name opens a span named
``<layer>.<function>``, where the layer is the module that defines the
function. Nothing under ``src/`` is edited: the wrappers are installed by
``setattr`` and the originals are put back when the ``Tracer`` exits.

Spans are kept in memory in flat arrays (index = span id) and written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

NO_PARENT = -1


class Recorder:
    """In-memory span store: name, start, end, parent span, run id, work."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.work = array("d")
        self.run_ids = array("i")
        self.runs: list[str] = []
        self._open: list[int] = []
        self._run = -1
        # autodiff ops called by another op (sub/mul/mean inside mse) are
        # folded into the outer op; see _op_wrapper
        self.in_op = False
        self.inner_nodes: list = []

    def __len__(self):
        return len(self.starts)

    def begin_run(self, run_id: str) -> None:
        self.runs.append(run_id)
        self._run = len(self.runs) - 1

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._open[-1] if self._open else NO_PARENT)
        self.run_ids.append(self._run)
        self.work.append(0.0)
        self.ends.append(0.0)
        self._open.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def name(self, i: int) -> str:
        return self.names[self.name_ids[i]]

    def write(self, path) -> None:
        """One JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self)):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.name(i),
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                            "run": self.runs[self.run_ids[i]] if self.run_ids[i] >= 0 else "",
                            "work": self.work[i],
                        }
                    )
                    + "\n"
                )


class NullRecorder:
    """Stands in for a Recorder when tracing is off."""

    @contextmanager
    def span(self, name: str):
        yield -1

    def begin_run(self, run_id: str) -> None:
        pass


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    n = len(starts)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        p = parents[i]
        if p != NO_PARENT:
            children[p].append(i)
    out = [0.0] * n
    for i in range(n):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        reach = lo
        for c in sorted(children[i], key=lambda c: starts[c]):
            a, b = max(starts[c], reach), min(ends[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out[i] = (hi - lo) - covered
    return out


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Probe:
    """One attribute to wrap: ``owner`` is a module path, or ``module:Class``."""

    owner: str
    attr: str
    name: str
    measure: Callable | None = None  # (args, kwargs, result) -> span work
    op: bool = False  # an autodiff op: also time the backward closure of its node


def resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _call_wrapper(rec: Recorder, probe: Probe, fn):
    name, measure = probe.name, probe.measure

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if measure is not None:
            rec.work[i] = measure(args, kwargs, result)
        return result

    return wrapper


def _timed_closure(rec: Recorder, name: str, closure, work: float):
    def timed(g):
        i = rec.open(name)
        try:
            return closure(g)
        finally:
            rec.close(i)
            rec.work[i] = work

    return timed


def _op_wrapper(rec: Recorder, probe: Probe, fn):
    """Forward span ``<name>.fwd``; the node's backward closure gets ``<name>.bwd``.

    An op called while another op runs (``mse`` builds its result from
    ``-``, ``*`` and ``mean``) opens no span of its own: its time is the
    outer op's, and so are the backward closures of the nodes it made.
    """
    fwd, bwd, measure = f"{probe.name}.fwd", f"{probe.name}.bwd", probe.measure

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.in_op:
            out = fn(*args, **kwargs)
            rec.inner_nodes.append(out)
            return out
        rec.in_op = True
        i = rec.open(fwd)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
            rec.in_op = False
            inner, rec.inner_nodes = rec.inner_nodes, []
        flops = measure(args, kwargs, out) if measure is not None else 0.0
        rec.work[i] = flops
        for node in (out, *inner):
            if node._backward is not None:
                # both operand gradients cost one forward product each
                node._backward = _timed_closure(rec, bwd, node._backward, 2.0 * flops if node is out else 0.0)
        return out

    return wrapper


class Tracer:
    """Context manager: wrap every probe on entry, restore every original on exit."""

    def __init__(self, recorder: Recorder, probes):
        self.recorder = recorder
        self.probes = tuple(probes)
        self._saved: list = []

    def __enter__(self):
        try:
            for probe in self.probes:
                owner = resolve(probe.owner)
                original = vars(owner)[probe.attr]
                make = _op_wrapper if probe.op else _call_wrapper
                self._saved.append((owner, probe.attr, original))
                setattr(owner, probe.attr, make(self.recorder, probe, original))
        except BaseException:
            self._restore()
            raise
        return self.recorder

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
