"""``repro-serve`` — run the HTTP blob/file front-end as a process.

Examples::

    repro-serve                         # 127.0.0.1:8070, 8 providers
    repro-serve --port 0 --providers 16 # ephemeral port, bigger backend
    repro-serve --trace-sample 1        # record every request's span tree

The deployment runs ``BlobSeerConfig().fast(group_commit=False)``. Of
that profile only the namespace record cache acts here, so an append
looks its file up once; the tree-node cache prices simulated metadata
RPCs and is never built on the served path, where a node read is one
dict lookup. There is no group commit, which only pays when appenders
queue behind one another. There is no flag for it.

The process is bounded in memory however long it serves: it records the
span tree of one request in ``--trace-sample`` into a ring of
:data:`TRACE_RING_SPANS` spans (read back with ``GET /debug/traces``),
and its histograms keep a reservoir of :data:`HIST_MAX_SAMPLES` samples
each (``count``/``mean``/``min``/``max`` stay exact).

Lifecycle contract (tested by ``tests/server/test_cli.py``): SIGINT and
SIGTERM trigger a *graceful* stop — close the listener and the idle
connections, let a client take the replies it has not read yet, release
the service — and the process exits 0
with a one-line notice, never a traceback. Bad arguments exit 2 through
argparse.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import List

from ..obs import MetricsRegistry, Observability, Tracer
from ..obs.runtime import gc_metrics
from .app import BlobServer

#: spans the server's tracer retains — about 1,600 sampled appends (10
#: spans each: the request and the 9 below it), a few MiB
TRACE_RING_SPANS = 16_384
#: samples each histogram retains for its percentiles
HIST_MAX_SAMPLES = 4096


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve the BlobSeer/BSFS stack over HTTP (concurrent "
            "appends, versioned reads, namespace operations). The "
            "deployment runs the 'fast' metadata profile's namespace "
            "record cache without group commit."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8070,
        help="listen port; 0 picks an ephemeral one (default: 8070)",
    )
    parser.add_argument(
        "--providers",
        type=int,
        default=8,
        metavar="N",
        help="data providers in the in-process deployment (default: 8)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=64,
        metavar="N",
        help=(
            "record the span tree of one request in N for GET /debug/traces; "
            "1 = every request, 0 = tracing off (default: 64)"
        ),
    )
    args = parser.parse_args(argv)
    if args.trace_sample < 0:
        parser.error("--trace-sample must be 0 or more")
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        # signal handlers normally convert SIGINT into a graceful stop;
        # this is the fallback for a second Ctrl-C mid-drain
        print("interrupted", file=sys.stderr)
        return 130


async def _serve(args) -> int:
    obs = Observability(
        tracer=Tracer(
            enabled=args.trace_sample > 0, max_spans=TRACE_RING_SPANS
        ),
        registry=MetricsRegistry(default_hist_max_samples=HIST_MAX_SAMPLES),
    )
    server = BlobServer(
        host=args.host,
        port=args.port,
        n_providers=args.providers,
        seed=args.seed,
        obs=obs,
        trace_sample=args.trace_sample,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    # the collector's share of the serving loop, in GET /metrics
    with gc_metrics(obs.registry):
        host, port = await server.start()
        print(f"repro-serve listening on http://{host}:{port}", flush=True)
        await stop.wait()
        print("shutting down", file=sys.stderr)
        await server.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
