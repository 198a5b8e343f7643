"""Per-layer host-time tracing, installed from outside the program.

The benchmark never edits ``src/``: this module wraps the public entry
points of each layer in place (class methods on the class, module-level
functions in every module that imported them by name) and records one
span per call.  A span is ``[name, layer, start, end, parent, op]``;
spans stay in memory until the run ends.  Every benchmark operation (a hop,
an audit, a sweep, ...) opens a root span, and all spans beneath it
carry that root's op id.

Self time of a span is its duration minus its children's durations.
Spans nest strictly (the benchmark is single-threaded and no wrapped
entry point is a generator), so the children of a span cover disjoint
parts of its interval and the subtraction is exact.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_NAME, _LAYER, _START, _END, _PARENT, _OP = range(6)

#: Root spans are recorded under this layer name; their self time is the
#: benchmark loop's own share ("unattributed" in the reports).
LOOP = "loop"


def layer_targets():
    """``(owner, attribute, layer)`` for every wrapped entry point.

    *owner* is a class (the method is wrapped on the class) or a module
    (the function is wrapped wherever it was imported by name).
    """
    from repro.cloud import hbase, hdfs, mapreduce, notify, pool, portal
    from repro.core import aea, tfc
    from repro.crypto.backend import default_backend
    from repro.document import archive, delta, document, verify
    from repro.xmlsec import canonical, xmldsig, xmlenc

    backend_cls = type(default_backend())
    crypto = ("sign", "verify", "sign_pss", "verify_pss", "verify_batch",
              "wrap_key", "unwrap_key", "seal", "open_sealed", "seal_gcm",
              "open_gcm")
    doc = document.Dra4wfmsDocument
    targets = [
        *((portal.PortalServer, name, "portal") for name in (
            "retrieve", "retrieve_delta", "submit", "submit_delta",
            "upload_initial", "search_todo")),
        (aea.ActivityExecutionAgent, "execute_activity", "aea"),
        (tfc.TfcServer, "process", "tfc"),
        (verify, "verify_document", "verify"),
        (canonical, "canonicalize", "c14n"),
        (canonical, "canonicalize_boundaries", "c14n"),
        (xmldsig.XmlSignature, "verify", "dsig"),
        (xmldsig, "sign_references", "dsig"),
        (xmlenc, "encrypt_value", "xmlenc"),
        (xmlenc.EncryptedValue, "decrypt", "xmlenc"),
        (doc, "from_bytes", "parse"),
        (doc, "definition", "definition"),
        *((doc, name, "docops") for name in (
            "clone_for_append", "merge", "to_bytes")),
        *((delta, name, "delta") for name in (
            "encode_delta", "decode_delta", "assemble", "seed_chunks")),
        *((backend_cls, name, "crypto") for name in crypto
          if hasattr(backend_cls, name)),
        *((pool.DocumentPool, name, "pool") for name in (
            "store", "latest", "compact", "retire", "gc",
            "flush_hot_tables")),
        *((hbase.SimHBase, name, "hbase") for name in (
            "put", "get", "get_rows", "delete_rows", "scan",
            "flush_table")),
        (hdfs.SimHdfs, "write", "hdfs"),
        (hdfs.SimHdfs, "read", "hdfs"),
        (notify.NotificationService, "notify", "notify"),
        (archive, "export_archive", "archive"),
        (archive, "verify_archive", "archive"),
        (mapreduce.MapReduceEngine, "run", "census"),
    ]
    return targets


class LayerTracer:
    """Collects spans around the wrapped entry points of every layer."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._ops = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- operation roots ------------------------------------------------------

    @contextmanager
    def root(self, kind: str):
        """Open a root span of *kind*; everything beneath shares its op id."""
        self._ops += 1
        self._op = self._ops
        index = len(self.spans)
        record = [kind, LOOP, time.perf_counter(), 0.0, -1, self._op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[_END] = time.perf_counter()
            self._stack.pop()
            self._op = -1

    # -- installation ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, layer, clock(), 0.0,
                      stack[-1] if stack else -1, tracer._op]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for owner, attr, layer in layer_targets():
            name = f"{layer}.{attr}"
            if inspect.isclass(owner):
                static = inspect.getattr_static(owner, attr)
                if isinstance(static, classmethod):
                    wrapped = classmethod(
                        self._wrap(static.__func__, name, layer))
                else:
                    wrapped = self._wrap(static, name, layer)
                self._patch(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, layer)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if namespace is None or module is sys.modules[__name__]:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------------

    def summarize(self) -> dict:
        """Per root kind: op count, root ms, and per-layer self ms/calls.

        Returns ``{kind: {"ops": n, "root_ms": total, "self_ms":
        {layer: ms}, "calls": {span name: count}, "incl_ms": {span name:
        inclusive ms}}}``.
        """
        child_s = [0.0] * len(self.spans)
        for record in self.spans:
            parent = record[_PARENT]
            if parent >= 0:
                child_s[parent] += record[_END] - record[_START]
        kind_of_op: dict[int, str] = {}
        out: dict[str, dict] = {}
        for index, record in enumerate(self.spans):
            if record[_LAYER] == LOOP:
                kind = record[_NAME]
                kind_of_op[record[_OP]] = kind
                entry = out.setdefault(kind, {
                    "ops": 0, "root_ms": 0.0,
                    "self_ms": defaultdict(float),
                    "calls": defaultdict(int),
                    "incl_ms": defaultdict(float)})
                entry["ops"] += 1
                entry["root_ms"] += 1e3 * (record[_END] - record[_START])
            else:
                kind = kind_of_op.get(record[_OP])
                if kind is None:
                    continue  # a call made outside any operation
                entry = out[kind]
                entry["calls"][record[_NAME]] += 1
                entry["incl_ms"][record[_NAME]] += 1e3 * (
                    record[_END] - record[_START])
            entry["self_ms"][record[_LAYER]] += 1e3 * (
                record[_END] - record[_START] - child_s[index])
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line ``[name, layer, start_us,
        end_us, parent, op]`` (times relative to the first span)."""
        origin = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, layer, start, end, parent, op in self.spans:
                handle.write(json.dumps([
                    name, layer, round(1e6 * (start - origin), 3),
                    round(1e6 * (end - origin), 3), parent, op]))
                handle.write("\n")
