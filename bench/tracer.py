"""In-memory span tracing around netdac's public callables.

The tracer replaces functions and methods on netdac's modules and classes
with wrappers, from the benchmark's side only; netdac itself is unchanged.
Each call records a span (name, start, end, parent span, run id) in flat
arrays, timed on the clock that leaves calibration runs out.  Per name it
also keeps the call count, total time and self time (span time minus the
time of its direct child spans), normalized with the speed factor in force
when the span ends.  ``save`` writes every span to an ``.npz`` file.
"""

import contextlib
import inspect
from array import array

import numpy as np


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_run = array("i")
        self.run_id = 0
        self.stats = {}  # name -> [calls, total, self, calls inside a solve]
        self.enabled = True
        self.solve_depth = 0
        self.solve_batch_rows = 0
        self._stack = []  # [span index, child time]
        self._undo = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0, 0]
        return nid

    def _open(self, nid: int):
        t = self.clock.now()
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_start.append(t)
        self.span_end.append(t)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_run.append(self.run_id)
        frame = [idx, 0.0]
        self._stack.append(frame)
        return t, frame

    def _close(self, name: str, t0: float, frame) -> None:
        t1 = self.clock.now()
        self._stack.pop()
        dur = t1 - t0
        self.span_end[frame[0]] = t1
        if self._stack:
            self._stack[-1][1] += dur
        f = self.clock.factor()
        st = self.stats[name]
        st[0] += 1
        st[1] += dur * f
        st[2] += (dur - frame[1]) * f
        if self.solve_depth:
            st[3] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call made by the benchmark itself."""
        nid = self._id(name)
        t0, frame = self._open(nid)
        try:
            yield
        finally:
            self._close(name, t0, frame)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(self, owner, attr: str, name: str, batch_rows: bool = False) -> None:
        """Trace ``owner.attr``; ``batch_rows`` counts rows of a batch argument."""
        fn = inspect.getattr_static(owner, attr)
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if batch_rows and tracer.solve_depth:
                tracer.solve_batch_rows += len(args[-1])
            t0, frame = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, t0, frame)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def wrap_everywhere(self, modules, fn, name: str) -> None:
        """Trace a function under every module-level name bound to it."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.wrap(mod, attr, name)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def mean(self, name: str, column: int = 1) -> float:
        """Mean normalized seconds per call (column 1 total, 2 self); 0 if never called."""
        st = self.stats.get(name)
        return st[column] / st[0] if st and st[0] else 0.0

    def total(self, name: str, column: int = 1) -> float:
        st = self.stats.get(name)
        return st[column] if st else 0.0

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            run=np.frombuffer(self.span_run, dtype=np.int32),
        )
