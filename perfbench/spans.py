"""In-memory span recorder for the traced benchmark run.

A span is ``(id, parent, name, start, end, req)``: ``parent`` is the
span open on the same thread when it began, ``req`` the id of the
outermost span of that thread (one request).  Spans are wrapped around
calls into the program's layers by patching module or class attributes
from the benchmark's own files; ``restore()`` puts every original back.

A span's self time is its duration minus its children's durations, so
the self times of all spans under a root add up to the root's duration
exactly.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[dict]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin(self, name: str) -> dict:
        st = self._stack()
        parent = st[-1] if st else None
        sp = {
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "req": parent["req"] if parent else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        if sp["req"] is None:
            sp["req"] = sp["id"]
        st.append(sp)
        return sp

    def end(self, sp: dict) -> None:
        sp["end"] = time.perf_counter()
        st = self._stack()
        if not st or st[-1] is not sp:
            raise RuntimeError(f"span {sp['name']!r} closed out of order")
        st.pop()
        with self._lock:
            self.spans.append(sp)

    @contextlib.contextmanager
    def span(self, name: str):
        sp = self.begin(name)
        try:
            yield sp
        finally:
            self.end(sp)

    def enclosing(self, names) -> int | None:
        """Id of the innermost span open on this thread whose name is in
        ``names``, if any."""
        for sp in reversed(self._stack()):
            if sp["name"] in names:
                return sp["id"]
        return None

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(self, owner, attr: str, name: str, before=None) -> None:
        """Replace ``owner.attr`` with a function that records a span
        named ``name`` around each call.  ``before(*args, **kw)`` runs
        first, inside the caller's span, for counters."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kw):
            if before is not None:
                before(*args, **kw)
            sp = tracer.begin(name)
            try:
                return orig(*args, **kw)
            finally:
                tracer.end(sp)

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------ summary

    def under(self, root: dict) -> list[dict]:
        """``root`` and every span below it."""
        kids = defaultdict(list)
        for s in self.spans:
            kids[s["parent"]].append(s)
        out, todo = [], [root]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(kids[s["id"]])
        return out

    @staticmethod
    def self_times(spans: list[dict]) -> dict[str, float]:
        """Name → summed self time (s) over ``spans`` (a closed tree)."""
        child = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s["name"]] += (s["end"] - s["start"]) - child[s["id"]]
        return dict(out)

    def total(self, name: str, spans: list[dict] | None = None) -> float:
        """Summed inclusive duration of spans called ``name``."""
        spans = self.spans if spans is None else spans
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def n(self, name: str, spans: list[dict] | None = None) -> int:
        spans = self.spans if spans is None else spans
        return sum(1 for s in spans if s["name"] == name)

    def mean(self, name: str, spans: list[dict] | None = None) -> float:
        """Mean inclusive duration of spans called ``name`` (0 if none)."""
        n = self.n(name, spans)
        return self.total(name, spans) / n if n else 0.0

    def dump(self, path: str, extra: dict) -> None:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            json.dump(
                {
                    **extra,
                    "counts": dict(self.counts),
                    "spans": [
                        {**s, "start": s["start"] - t0, "end": s["end"] - t0}
                        for s in self.spans
                    ],
                },
                f,
            )
