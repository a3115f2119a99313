"""``repro-serve`` — run the HTTP blob/file front-end as a process.

Examples::

    repro-serve                         # 127.0.0.1:8070, 8 providers
    repro-serve --port 0 --providers 16 # ephemeral port, bigger backend

Lifecycle contract (tested by ``tests/server/test_cli.py``): SIGINT and
SIGTERM trigger a *graceful* stop — close the listener, drain open
connections, release the service — and the process exits 0
with a one-line notice, never a traceback. Bad arguments exit 2 through
argparse.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import List

from ..obs import Observability
from .app import BlobServer


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve the BlobSeer/BSFS stack over HTTP (concurrent "
            "appends, versioned reads, namespace operations)."
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
        "--wait-threads",
        type=int,
        default=256,
        metavar="N",
        help=(
            "thread-pool slots for blocking metadata waits — size at the "
            "expected number of concurrently queued appenders (default: 256)"
        ),
    )
    args = parser.parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        # signal handlers normally convert SIGINT into a graceful stop;
        # this is the fallback for a second Ctrl-C mid-drain
        print("interrupted", file=sys.stderr)
        return 130


async def _serve(args) -> int:
    obs = Observability.on()
    server = BlobServer(
        host=args.host,
        port=args.port,
        n_providers=args.providers,
        seed=args.seed,
        obs=obs,
        max_wait_threads=args.wait_threads,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    host, port = await server.start()
    print(f"repro-serve listening on http://{host}:{port}", flush=True)
    await stop.wait()
    print("shutting down", file=sys.stderr)
    await server.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
