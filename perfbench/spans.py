"""Tracing for the per-layer run: spans at each layer's module boundary.

The tracer replaces the names a layer calls through with timing wrappers
(nothing in ``src/`` is edited) and the harness opens its own spans around
each public call. A span carries a name, start, end, parent and op id.
Spans are kept in memory under a lock, because the key-service handler
and the chunk workers run on other threads, and written out at the end.

A span opened on a thread other than the client's, with nothing open on
its own thread, takes as parent the client's innermost open span: with
one closed-loop client, that is the call the other thread works for.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

# (module, attribute) -> how to size the call: index of the bytes-like
# argument whose length the span records, or None.
WRAPS = (
    ("modelvault.unsealer", "decode", None),
    ("modelvault.unsealer", "sha256", 0),
    ("modelvault.unsealer", "_decrypt_chunk", 3),
    ("modelvault.sealer", "sha256", 0),
    ("modelvault.sealer", "ctr_crypt", 0),
    ("modelvault.sealer", "encode", None),
    ("modelvault.sealer", "_atomic_write", 1),
    ("modelvault.key_client", "derive_key", None),
    ("modelvault.key_service", "handle_key_request", None),
)


def _nbytes(args, index) -> int:
    try:
        return memoryview(args[index]).nbytes
    except (IndexError, TypeError):
        return 0


class _Span:
    __slots__ = ("tracer", "name", "attrs", "id", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.attrs = {}

    def __enter__(self):
        self.id, self.parent = self.tracer._push()
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.tracer._pop()
        self.tracer._record(self.id, self.name, self.start, end, self.parent, self.attrs)
        return False


class Tracer:
    """Collects spans while an op is open; install() wraps the layers."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.op_id: int | None = None
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._client = threading.get_ident()
        self._client_stack: list[int] = []
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self) -> tuple[int, int | None]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            client = self._client_stack
            parent = client[-1] if client else None
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent

    def _pop(self) -> None:
        self._stack().pop()

    def _record(self, span_id, name, start, end, parent, attrs) -> None:
        span = {"id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "op": self.op_id, **attrs}
        with self._lock:
            self.spans.append(span)

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def install(self) -> None:
        """Wrap every name in WRAPS; record absent ones in ``missing``."""
        for module_name, attr, size_arg in WRAPS:
            label = f"{module_name.rpartition('.')[2]}.{attr}"
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            setattr(module, attr, self._wrapper(label, original, size_arg))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrapper(self, label, original, size_arg):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return original(*args, **kwargs)
            with tracer.span(label) as span:
                if size_arg is not None:
                    span.attrs["bytes"] = _nbytes(args, size_arg)
                result = original(*args, **kwargs)
                if label == "key_service.handle_key_request":
                    span.attrs["status"] = result[0]
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _union_ns(intervals, lo, hi) -> int:
    covered, cursor = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_ns(span: dict, children: list[dict]) -> int:
    """The span's duration minus the part of it its children cover."""
    intervals = [(c["start"], c["end"]) for c in children]
    return span["end"] - span["start"] - _union_ns(intervals, span["start"], span["end"])


def layer_metrics(spans: list[dict], ops: int, plaintext_bytes: int) -> dict[str, float]:
    """Per-layer metrics from one traced phase.

    Times are milliseconds per op, counts are totals over the phase, and
    ratios are per plaintext byte the ops completed.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        children[span["parent"]].append(span)

    def total_ns(*names):
        return sum(s["end"] - s["start"] for n in names for s in by_name[n])

    def per_op_ms(ns):
        return ns / 1e6 / ops

    def self_total_ns(name):
        return sum(self_ns(s, children[s["id"]]) for s in by_name[name])

    def byte_total(*names):
        return sum(s.get("bytes", 0) for n in names for s in by_name[n])

    def share(nbytes):
        return nbytes / plaintext_bytes if plaintext_bytes else 0.0

    ctr = ("unsealer._decrypt_chunk", "sealer.ctr_crypt")
    sha = ("unsealer.sha256", "sealer.sha256")
    statuses = [s.get("status") for s in by_name["key_service.handle_key_request"]]
    fetch_ns = total_ns("harness.fetch_key")
    handle_ns = total_ns("key_service.handle_key_request")
    client_derive_ns = total_ns("key_client.derive_key")
    return {
        "key_client.fetch_ms": per_op_ms(fetch_ns),
        "key_client.fetches": len(by_name["harness.fetch_key"]),
        "key_client.refused": sum(1 for s in by_name["harness.fetch_key"] if s.get("refused")),
        "key_service.handle_ms": per_op_ms(handle_ns),
        "key_service.transport_ms": per_op_ms(fetch_ns - handle_ns - client_derive_ns),
        "key_service.status_200": statuses.count(200),
        "key_service.status_401": statuses.count(401),
        "crypto.derive_ms": per_op_ms(client_derive_ns + total_ns("harness.derive_key")),
        "crypto.ctr_ms": per_op_ms(total_ns(*ctr)),
        "crypto.ctr_calls": sum(len(by_name[n]) for n in ctr),
        "crypto.ctr_bytes": byte_total(*ctr),
        "crypto.sha256_ms": per_op_ms(total_ns(*sha)),
        "crypto.sha256_calls": sum(len(by_name[n]) for n in sha),
        "crypto.sha256_bytes_ratio": share(byte_total(*sha)),
        "container.decode_ms": per_op_ms(total_ns("unsealer.decode")),
        "container.encode_ms": per_op_ms(total_ns("sealer.encode")),
        "unsealer.call_ms": per_op_ms(total_ns("harness.unseal_parallel")),
        "unsealer.self_ms": per_op_ms(self_total_ns("harness.unseal_parallel")),
        "sealer.call_ms": per_op_ms(total_ns("harness.seal_file")),
        "sealer.self_ms": per_op_ms(self_total_ns("harness.seal_file")),
        "sealer.write_ms": per_op_ms(total_ns("sealer._atomic_write")),
        "sealer.writes": len(by_name["sealer._atomic_write"]),
        "sealer.bytes_written_ratio": share(byte_total("sealer._atomic_write")),
        "op.read_ms": per_op_ms(total_ns("harness.read")),
    }
