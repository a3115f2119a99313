"""Benchmark-side tracing: wall-clock spans around public entry points.

The program is not edited. :func:`install` replaces a fixed set of
public callables (engine ``run``, the version-manager endpoint methods,
``ProviderManager.allocate``, the segment-tree and overlay functions the
protocol core imported, ``Provider.put_page``/``get_page``, the
namespace manager) with timing wrappers that append
``(span id, parent id, op id, layer, name, start, end)`` tuples to an
in-memory list. Nothing is recorded until :meth:`Recorder.mark` opens
the timed window, so set-up and the output checks cost one flag test
per wrapped call.

The current span and op travel in ``contextvars``, which follow both
threads (threaded engine) and asyncio tasks (the server's engine). The
one place they do not follow is the asyncio engine's wait pool: a
``metadata_turn`` runs on a pool thread with an empty context, so the
wrapper around ``AsyncioEngine.wait`` leaves the parent where the
endpoint wrapper can pick it up, keyed by the call's arguments.

Self time is a span's duration minus the durations of its direct
children; summed over a layer it is what that layer alone cost.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

_now = time.perf_counter
_current = contextvars.ContextVar("bench_span", default=0)
_op = contextvars.ContextVar("bench_op", default=-1)

#: version-manager endpoint methods, split into work and waiting
VM_BUSY = ("assign_append", "commit", "commit_ready", "publish_batch", "resolve")
VM_WAIT = ("metadata_turn", "publish_wait")

Span = Tuple[int, int, int, str, str, float, float]


class Recorder:
    """Spans and counter snapshots of one timed window."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Span] = []
        #: name -> callable returning a lifetime count; read at both marks
        self.counter_sources: Dict[str, Callable[[], float]] = {}
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._wait_parent: Dict[tuple, Tuple[int, int]] = {}

    def mark(self, kind: str) -> None:
        """``start`` opens the window, ``end`` closes it."""
        counts = {name: float(fn()) for name, fn in self.counter_sources.items()}
        if kind == "start":
            self.counters = counts
            self.active = True
        elif kind == "end":
            self.active = False
            self.counters = {
                name: value - self.counters.get(name, 0.0)
                for name, value in counts.items()
            }
        else:
            raise ValueError(f"unknown mark {kind!r}")

    def set_op(self, op_id: int) -> None:
        """Tag the spans that follow in this thread or task."""
        _op.set(op_id)

    def wrap(self, owner, attr: str, layer: str, adopt: bool = False) -> None:
        """Replace ``owner.attr`` with a wrapper recording one span per
        call in *layer*, named after the attribute. With *adopt*, a
        call that arrives without a parent (a method run on the asyncio
        engine's wait pool) takes the one :meth:`hand_off_waits` left
        for it."""
        fn = getattr(owner, attr)
        spans, ids, rec = self.spans, self._ids, self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def timed(*args, **kwargs):
                if not rec.active:
                    return await fn(*args, **kwargs)
                sid = next(ids)
                parent = _current.get()
                token = _current.set(sid)
                t0 = _now()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    t1 = _now()
                    _current.reset(token)
                    spans.append((sid, parent, _op.get(), layer, attr, t0, t1))

        else:

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                if not rec.active:
                    return fn(*args, **kwargs)
                sid = next(ids)
                parent, op = _current.get(), _op.get()
                if adopt and parent == 0:
                    # args[0] is the endpoint instance
                    parent, op = rec._wait_parent.pop(
                        (attr, args[1:]), (0, -1)
                    )
                token = _current.set(sid)
                t0 = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = _now()
                    _current.reset(token)
                    spans.append((sid, parent, op, layer, attr, t0, t1))

        setattr(owner, attr, timed)

    def hand_off_waits(self, engine_cls) -> None:
        """Remember, per wait op, the span that created it (see module
        docstring)."""
        wait = engine_cls.wait
        rec = self

        @functools.wraps(wait)
        def handing_off(self, endpoint, method, *args):
            if rec.active:
                rec._wait_parent[(method, args)] = (_current.get(), _op.get())
            return wait(self, endpoint, method, *args)

        engine_cls.wait = handing_off

    def client_op(self, op_id: int, name: str):
        """Context manager: one client-side root span (in-process
        workloads), also setting the op id its children inherit."""
        return _ClientOp(self, op_id, name)

    def summary(self) -> Dict[str, object]:
        """Per-layer self seconds, per-span-name inclusive seconds and
        call counts, the seconds covered by parentless spans, and the
        counter deltas over the window."""
        covered: Dict[int, float] = defaultdict(float)
        for _sid, parent, _o, _layer, _name, t0, t1 in self.spans:
            covered[parent] += t1 - t0
        self_s: Dict[str, float] = defaultdict(float)
        incl_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for sid, _parent, _o, layer, name, t0, t1 in self.spans:
            self_s[layer] += (t1 - t0) - covered.get(sid, 0.0)
            incl_s[f"{layer}:{name}"] += t1 - t0
            calls[f"{layer}:{name}"] += 1
        return {
            "self_s": dict(self_s),
            "incl_s": dict(incl_s),
            "calls": dict(calls),
            "root_s": covered.get(0, 0.0),
            "counters": dict(self.counters),
            "spans": len(self.spans),
        }

    def dump(self, path: str) -> None:
        """Write the raw spans, one JSON array per line."""
        with open(path, "w") as fp:
            fp.write('["span","parent","op","layer","name","start","end"]\n')
            for span in self.spans:
                fp.write(json.dumps(span) + "\n")


class _ClientOp:
    __slots__ = ("rec", "op_id", "name", "sid", "token", "t0")

    def __init__(self, rec: Recorder, op_id: int, name: str) -> None:
        self.rec, self.op_id, self.name = rec, op_id, name

    def __enter__(self):
        _op.set(self.op_id)
        self.sid = next(self.rec._ids)
        self.token = _current.set(self.sid)
        self.t0 = _now()
        return self

    def __exit__(self, *exc) -> None:
        t1 = _now()
        _current.reset(self.token)
        if self.rec.active:
            self.rec.spans.append(
                (self.sid, 0, self.op_id, "client", self.name, self.t0, t1)
            )


def install(rec: Recorder, engine: str) -> None:
    """Wrap the live stack's entry points. *engine* is ``"aio"`` (the
    HTTP server) or ``"threaded"`` (the library path)."""
    from repro.blobseer import protocol
    from repro.blobseer.provider import Provider
    from repro.blobseer.provider_manager import ProviderManager
    from repro.blobseer.version_manager import ThreadedVersionManager
    from repro.bsfs.namespace import NamespaceManager

    if engine == "aio":
        from repro.engine.aio import AsyncioEngine

        rec.wrap(AsyncioEngine, "run", "engine.aio")
        rec.hand_off_waits(AsyncioEngine)
    elif engine == "threaded":
        from repro.engine.threaded import ThreadedEngine

        rec.wrap(ThreadedEngine, "run", "engine.threaded")
    else:
        raise ValueError(f"unknown engine {engine!r}")
    for method in VM_BUSY:
        rec.wrap(ThreadedVersionManager, method, "version_manager.busy")
    for method in VM_WAIT:
        rec.wrap(
            ThreadedVersionManager, method, "version_manager.turn_wait", adopt=True
        )
    rec.wrap(ProviderManager, "allocate", "provider_manager")
    # the protocol core bound these names at import; patch its globals
    rec.wrap(protocol, "build_version", "metadata.build")
    rec.wrap(protocol, "build_versions_batch", "metadata.build")
    rec.wrap(protocol, "query_pages", "metadata.query")
    rec.wrap(protocol, "overlay", "pages.overlay")
    rec.wrap(Provider, "put_page", "provider.put")
    rec.wrap(Provider, "get_page", "provider.get")
    for method in ("get", "update_size", "create", "get_status"):
        rec.wrap(NamespaceManager, method, "namespace")


def dht_counter_sources(rec: Recorder, dht) -> None:
    """Count segment-tree node reads and writes from the DHT's own
    lifetime tallies (exact, and free of wrapper cost)."""
    rec.counter_sources["dht.gets"] = lambda: sum(dht.gets)
    rec.counter_sources["dht.puts"] = lambda: sum(dht.puts)


# -- DES runs: cProfile self time by module ---------------------------------

#: first match wins; paths are relative to the ``repro`` package
DES_LAYERS = (
    ("sim/core.py", "sim.core"),
    ("sim/network.py", "sim.network"),
    ("sim/", "sim.resources"),
    ("engine/", "engine.des"),
    ("blobseer/version_manager.py", "blobseer.version_manager"),
    ("blobseer/sim_vm.py", "blobseer.version_manager"),
    ("blobseer/metadata/", "blobseer.metadata"),
    ("blobseer/pages.py", "blobseer.pages"),
    ("blobseer/provider_manager.py", "blobseer.provider_manager"),
    ("blobseer/placement.py", "blobseer.provider_manager"),
    ("blobseer/", "blobseer.protocol"),
    ("bsfs/", "bsfs"),
    ("hdfs/", "hdfs"),
    ("mapreduce/", "mapreduce"),
    ("apps/", "mapreduce"),
    ("experiments/", "experiments"),
    ("workloads/", "experiments"),
    ("obs/", "obs"),
)


def profile_layers(profile) -> Dict[str, float]:
    """Sum a ``cProfile.Profile``'s ``tottime`` by layer. Everything
    outside the ``repro`` package (builtins, numpy, the stdlib) is
    ``other``."""
    import pstats

    out: Dict[str, float] = {layer: 0.0 for _, layer in DES_LAYERS}
    out["other"] = 0.0
    for (filename, _line, _fn), stat in pstats.Stats(profile).stats.items():
        tottime = stat[2]
        layer = "other"
        _, sep, rel = filename.replace("\\", "/").rpartition("/repro/")
        if sep:
            for prefix, name in DES_LAYERS:
                if rel.startswith(prefix):
                    layer = name
                    break
        out[layer] += tottime
    return out
