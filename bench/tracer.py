"""Tracing of peritl from outside the program.

`Tracer.install()` wraps the library's public functions and rebinds each
wrapper in every ``peritl.*`` module namespace that holds the original,
because the modules import one another's functions by name.  The source
tree is not touched.

Spans (name, start, end, parent) are kept only for requests and for
verification suites.  Calls nested below them are aggregated per request
kind into (caller, callee) -> [calls, self seconds, total seconds], so the
millions of calls of a verification sweep take constant memory.  Self time
is a call's duration minus the time of the traced calls made inside it.
"""
from __future__ import annotations

import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# name -> function of the result whose value is counted per call
OUTCOMES = {
    "fock.classify_case": lambda case: case,
    "partitions.minimal_balanced_hook_starting": lambda hook: hook is not None,
    "partitions.minimal_balanced_hook_ending": lambda hook: hook is not None,
}
SUITE_SPAN = "verify.run_suite"


class Bucket:
    """Aggregates of the calls made under one kind of request."""

    def __init__(self):
        self.calls: dict[tuple[str, str], list] = {}
        self.outcomes: Counter = Counter()


class Tracer:
    def __init__(self):
        self.buckets: dict[str, Bucket] = {}
        self.bucket = self._bucket("<outside>")
        self.stack = [["<outside>", 0.0]]  # [name, seconds spent in traced children]
        self.spans: list[dict] = []
        self.open_spans: list[int] = []

    def _bucket(self, kind: str) -> Bucket:
        return self.buckets.setdefault(kind, Bucket())

    def _record(self, parent, name, calls, dt, child) -> None:
        rec = self.bucket.calls.get((parent[0], name))
        if rec is None:
            rec = self.bucket.calls[(parent[0], name)] = [0, 0.0, 0.0]
        rec[0] += calls
        rec[1] += dt - child
        rec[2] += dt
        parent[1] += dt

    def _open(self, name: str) -> None:
        parent = self.open_spans[-1] if self.open_spans else None
        self.open_spans.append(len(self.spans))
        self.spans.append({"name": name, "start": perf_counter(), "end": None, "parent": parent})

    def _close(self) -> dict:
        span = self.spans[self.open_spans.pop()]
        span["end"] = perf_counter()
        return span

    @contextmanager
    def request(self, kind: str):
        """Root span of one request; nested calls aggregate under `kind`."""
        outer = self.bucket
        self.bucket = self._bucket(kind)
        frame = [kind, 0.0]
        self.stack.append(frame)
        self._open(kind)
        try:
            yield
        finally:
            span = self._close()
            self.stack.pop()
            self._record(self.stack[-1], kind, 1, span["end"] - span["start"], frame[1])
            self.bucket = outer

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(inspect.unwrap(fn)):
            return self._wrap_generator(name, fn)
        if name == SUITE_SPAN:
            return self._wrap_suite(name, fn)
        return self._wrap_plain(name, fn)

    def _wrap_plain(self, name: str, fn):
        outcome = OUTCOMES.get(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self._record(parent, name, 1, dt, frame[1])
            if outcome is not None:
                self.bucket.outcomes[(name, outcome(result))] += 1
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Each resumption of the generator counts as self time of `name`."""
        stack = self.stack

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            calls = 1
            while True:
                parent = stack[-1]
                frame = [name, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    self._record(parent, name, calls, dt, frame[1])
                    calls = 0
                yield item

        return wrapper

    def _wrap_suite(self, name: str, fn):
        """run_suite keeps a span per suite, with the suite's check count."""
        inner = self._wrap_plain(name, fn)

        def wrapper(suite, *args, **kwargs):
            self._open(f"verify.{suite}")
            try:
                report = inner(suite, *args, **kwargs)
            finally:
                span = self._close()
            span["checks"] = report.checked
            return report

        return wrapper

    def install(self, extra: dict[str, object]) -> None:
        """Wrap the callables exported by `peritl` plus `extra` (qualified
        name -> object) and rebind them in every peritl module."""
        import peritl

        targets = {
            f"{inspect.unwrap(obj).__module__.rsplit('.', 1)[-1]}.{attr}": obj
            for attr, obj in vars(peritl).items()
            if inspect.isfunction(obj)
        }
        targets.update(extra)
        wrappers = {id(obj): (obj, self.wrap(name, obj)) for name, obj in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "peritl" and not mod_name.startswith("peritl."):
                continue
            for attr, val in list(vars(mod).items()):
                pair = wrappers.get(id(val))
                if pair is not None and pair[0] is val:
                    setattr(mod, attr, pair[1])

    # -- read-out -----------------------------------------------------------

    def totals(self, kinds) -> tuple[dict, Counter, Counter]:
        """Per name [calls, self, total], per (caller, callee) calls, and
        outcomes, summed over the request kinds in `kinds`."""
        per_name: dict[str, list] = {}
        edges: Counter = Counter()
        outcomes: Counter = Counter()
        for kind in kinds:
            bucket = self.buckets[kind]
            for (parent, name), (calls, self_s, total_s) in bucket.calls.items():
                acc = per_name.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += self_s
                acc[2] += total_s
                edges[(parent, name)] += calls
            outcomes.update(bucket.outcomes)
        return per_name, edges, outcomes

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "buckets": {
                kind: {
                    "calls": [[p, n, *rec] for (p, n), rec in sorted(b.calls.items())],
                    "outcomes": [[n, repr(o), c] for (n, o), c in sorted(b.outcomes.items(), key=repr)],
                }
                for kind, b in self.buckets.items()
            },
        }
