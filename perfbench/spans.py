"""Spans around xferkit's public functions, recorded from outside the
package.

Each wrapped function is replaced at the name its caller looks up (for
example `transfer.confusion`, which `transfer` imported by name, or
`_kernels.best_split`, which `forest` reaches through the module), so
the program itself is unchanged. Spans stay in memory with their parent
span; a span opened in a `parallel_map` worker thread takes the
`parallel_map` span as its parent. Self time is a span's duration minus
the part of it covered by its children.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, 0.0, 0.0, stack[-1] if stack else None])
        stack.append(sid)
        self.spans[sid][1] = time.perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace `owner.attr` by a traced twin; `on_result(args, result)`
        records counts after each call."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def wrap_parallel_map(self, owner, attr: str, name: str, workers) -> None:
        """Trace a `parallel_map(fn, items)` and the items it runs in its
        worker threads; counts item seconds and wall x workers."""
        fn = getattr(owner, attr)

        def traced(item_fn, items):
            items = list(items)
            sid = self._open(name)

            def item(x):
                stack = self._stack()
                stack.append(sid)
                start = time.perf_counter()
                try:
                    return item_fn(x)
                finally:
                    self.count(f"{name}.item_s", time.perf_counter() - start)
                    stack.pop()

            try:
                return fn(item, items)
            finally:
                self._close(sid)
                span = self.spans[sid]
                self.count(f"{name}.capacity_s",
                           (span[2] - span[1]) * min(workers(), max(1, len(items))))

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name."""
        children = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            totals[name] += (end - start) - covered
        return dict(totals)

    def write(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({"id": sid, "name": name, "start": start,
                                      "end": end, "parent": parent}) + "\n")
