"""In-memory span tracing for the benchmark's traced run.

The traced run wraps public functions of the program from outside:
each wrapper records one span (name, start, end, parent) in flat
arrays, plus an optional per-call value (fanout, scan length, visible
set size).  Nothing inside ``src/`` is edited and nothing is scheduled
on the simulation, so a traced run executes the same event sequence as
an untraced one; the benchmark checks that by fingerprint.

Self time is a span's duration minus the summed durations of its
direct children.  Calls are single-threaded and strictly nested, so
the children never overlap each other and always lie inside the
parent's interval.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

clock = time.perf_counter


class SpanRecorder:
    """Flat, append-only span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: List[int] = []
        #: Per-call side values keyed by metric stem (e.g. scan lengths).
        self.values: Dict[str, array] = {}
        #: Once-per-simulated-minute state-size samples.
        self.samples: Dict[str, List[Tuple[float, int]]] = {}
        self._patches: List[Tuple[type, str, object]] = []
        #: False while the benchmark checks results through wrapped
        #: functions, so its own calls stay out of the counts.
        self.recording = True

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def _open(self, name_id: int) -> int:
        index = len(self.name_ids)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        self.starts[index] = start
        self.ends[index] = end

    @contextlib.contextmanager
    def region(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index = self._open(self.name_id(name))
        start = clock()
        try:
            yield
        finally:
            self._close(index, start, clock())

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Call wrapped functions without recording them."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def value(self, stem: str, amount: float) -> None:
        values = self.values.get(stem)
        if values is None:
            values = self.values[stem] = array("d")
        values.append(amount)

    def sample(self, stem: str, when: float, amount: int) -> None:
        self.samples.setdefault(stem, []).append((when, amount))

    def wrap(self, fn: Callable, name: str,
             classify: Optional[Callable] = None,
             measure: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span.

        ``classify(*args)`` may rename the span per call (cache hit
        versus miss); ``measure(result, *args)`` returns a side value
        recorded under ``name``.
        """
        default_id = self.name_id(name)
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.recording:
                return fn(*args, **kwargs)
            name_id = default_id
            if classify is not None:
                name_id = recorder.name_id(classify(*args))
            index = recorder._open(name_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(index, start, clock())
            if measure is not None:
                recorder.value(name, measure(result, *args))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: type, attribute: str, name: str,
              classify: Optional[Callable] = None,
              measure: Optional[Callable] = None) -> None:
        """Replace the method ``owner.attribute`` with a traced wrapper.

        A class method is unwrapped and rewrapped as a class method, so
        the call signature is unchanged.
        """
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            replacement: object = classmethod(self.wrap(
                original.__func__, name, classify, measure))
        else:
            replacement = self.wrap(original, name, classify, measure)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        durations = ends - starts
        child = np.zeros(len(durations))
        nested = parents >= 0
        np.add.at(child, parents[nested], durations[nested])
        return {"name": names, "start": starts, "end": ends,
                "parent": parents, "duration": durations,
                "self": durations - child}

    def write(self, path: Path) -> None:
        """Write every span to ``path`` (a NumPy ``.npz`` archive)."""
        data = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.asarray(self.names), name=data["name"],
            start=data["start"], end=data["end"], parent=data["parent"],
        )


class SpanStats:
    """Per-name aggregates over a recorder's spans."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        data = recorder.arrays()
        self._by_name: Dict[str, Dict[str, np.ndarray]] = {}
        order = np.argsort(data["name"], kind="stable")
        names = data["name"][order]
        bounds = np.flatnonzero(np.diff(names)) + 1
        for group in np.split(order, bounds):
            if len(group):
                name = recorder.names[int(data["name"][group[0]])]
                self._by_name[name] = {
                    "duration": data["duration"][group],
                    "self": data["self"][group],
                }

    def calls(self, name: str) -> int:
        spans = self._by_name.get(name)
        return 0 if spans is None else len(spans["duration"])

    def _pick(self, name: str, kind: str) -> np.ndarray:
        spans = self._by_name.get(name)
        return np.zeros(0) if spans is None else spans[kind]

    def median_us(self, name: str, kind: str = "duration") -> float:
        values = self._pick(name, kind)
        return float(np.median(values)) * 1e6 if len(values) else 0.0

    def p99_us(self, name: str, kind: str = "duration") -> float:
        values = self._pick(name, kind)
        return (float(np.percentile(values, 99)) * 1e6
                if len(values) else 0.0)

    def total_s(self, name: str) -> float:
        return float(self._pick(name, "duration").sum())

    def value_mean(self, stem: str) -> float:
        values = self.recorder.values.get(stem)
        return float(np.mean(values)) if values else 0.0

    def value_sum(self, stem: str) -> float:
        values = self.recorder.values.get(stem)
        return float(np.sum(values)) if values else 0.0

    def sample_max(self, stem: str) -> int:
        samples = self.recorder.samples.get(stem)
        return max(amount for __, amount in samples) if samples else 0
