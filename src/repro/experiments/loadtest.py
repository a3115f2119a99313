"""HTTP load test — closed-loop concurrent appenders against
:mod:`repro.server`.

Where :mod:`repro.experiments.openloop` sweeps *simulated* offered load
to locate the metadata-plane capacity knee, this harness measures the
*real* serving path: N concurrent HTTP clients (one keep-alive socket
each, raw asyncio streams — no new dependencies) hammer the append
endpoint of a live :class:`~repro.server.app.BlobServer` for a fixed
duration, and the report is goodput plus the append-latency
distribution (p50/p95/p99). Each client appends to one of a small set
of shared files — the paper's many-writers-few-files pattern — so the
version manager's serialized assignment is on the measured path.

Run it against an external server (``repro-loadtest --url``) or
self-served (the default: boots a server on an ephemeral port in this
process, which is what the CI gate uses).
Latencies also land in the registry histogram ``loadtest.append_s``, so
a shared :class:`~repro.obs.Observability` sees client-side and
server-side (``http.fs_append_s``) views of the same traffic.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import NULL_OBS, Observability

#: bytes per append op — small, to keep the version manager's serialized
#: section (not socket throughput) the bottleneck under test
DEFAULT_OP_BYTES = 4 * 1024

#: shared target files (many writers, few files)
DEFAULT_N_FILES = 8


@dataclass(slots=True)
class LoadTestResult:
    """One load-test run."""

    clients: int
    duration_s: float
    op_bytes: int
    n_files: int
    #: requests that returned 2xx
    completed: int
    #: non-2xx responses plus transport errors
    failed: int
    goodput_ops_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    mean_s: float
    max_s: float
    bytes_appended: int
    #: per-status response counts (e.g. {"200": 5123})
    statuses: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "clients": self.clients,
            "duration_s": self.duration_s,
            "op_bytes": self.op_bytes,
            "n_files": self.n_files,
            "completed": self.completed,
            "failed": self.failed,
            "goodput_ops_s": self.goodput_ops_s,
            "latency_s": {
                "p50": self.p50_s,
                "p95": self.p95_s,
                "p99": self.p99_s,
                "mean": self.mean_s,
                "max": self.max_s,
            },
            "bytes_appended": self.bytes_appended,
            "statuses": self.statuses,
        }

    def to_text(self) -> str:
        lines = [
            f"http loadtest: {self.clients} clients x {self.duration_s:g}s, "
            f"{self.op_bytes}B appends over {self.n_files} files",
            f"  completed {self.completed} ops "
            f"({self.goodput_ops_s:,.0f} ops/s), {self.failed} failed",
            f"  latency p50 {self.p50_s * 1e3:.2f}ms  "
            f"p95 {self.p95_s * 1e3:.2f}ms  p99 {self.p99_s * 1e3:.2f}ms  "
            f"max {self.max_s * 1e3:.2f}ms",
        ]
        return "\n".join(lines)


async def _http_request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    body: bytes,
) -> Tuple[int, bytes]:
    """One request/response on a kept-alive connection. The server
    always answers with ``Content-Length``, so the read is exact."""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: loadtest\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed connection")
    status = int(status_line.split(b" ", 2)[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"", b"\n"):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    payload = await reader.readexactly(length) if length else b""
    return status, payload


async def _client_loop(
    cid: int,
    host: str,
    port: int,
    path: str,
    op_bytes: int,
    deadline_box: List[float],
    start_gate: asyncio.Event,
    latencies: List[float],
    statuses: Dict[str, int],
    failures: List[str],
    loop: asyncio.AbstractEventLoop,
) -> int:
    """One closed-loop client on one keep-alive connection; returns the
    number of completed (2xx) appends. The deadline is read from
    *deadline_box* after the gate opens — it is set by the driver at
    gate time so the measured window excludes connection setup."""
    body = bytes([(cid + i) & 0xFF for i in range(op_bytes)])
    completed = 0
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError as exc:
        failures.append(f"connect: {exc}")
        return 0
    try:
        await start_gate.wait()
        deadline = deadline_box[0]
        while loop.time() < deadline:
            t0 = loop.time()
            try:
                status, _ = await _http_request(
                    reader, writer, "POST", path, body
                )
            except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
                failures.append(f"transport: {type(exc).__name__}")
                break
            dt = loop.time() - t0
            key = str(status)
            statuses[key] = statuses.get(key, 0) + 1
            if 200 <= status < 300:
                latencies.append(dt)
                completed += 1
            else:
                failures.append(f"status {status}")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return completed


async def run_loadtest_async(
    host: str,
    port: int,
    clients: int = 50,
    duration_s: float = 5.0,
    op_bytes: int = DEFAULT_OP_BYTES,
    n_files: int = DEFAULT_N_FILES,
    obs: Optional[Observability] = None,
) -> LoadTestResult:
    """Drive *clients* concurrent appenders against a live server."""
    if clients < 1:
        raise ValueError("need at least one client")
    obs = obs or NULL_OBS
    hist = obs.registry.histogram("loadtest.append_s")
    loop = asyncio.get_running_loop()

    # precreate the shared shard files (idempotent via overwrite)
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for i in range(n_files):
            status, payload = await _http_request(
                reader,
                writer,
                "POST",
                f"/fs/files/loadtest/shard-{i:02d}?overwrite=true",
                b"",
            )
            if status >= 300:
                raise RuntimeError(
                    f"shard setup failed: {status} {payload!r}"
                )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    latencies: List[float] = []
    statuses: Dict[str, int] = {}
    failures: List[str] = []
    # connections are established before the gate opens, so the measured
    # window contains appends only, not connection setup
    start_gate = asyncio.Event()
    deadline_box = [0.0]
    tasks = [
        asyncio.ensure_future(
            _client_loop(
                cid,
                host,
                port,
                f"/fs/append/loadtest/shard-{cid % n_files:02d}",
                op_bytes,
                deadline_box,
                start_gate,
                latencies,
                statuses,
                failures,
                loop,
            )
        )
        for cid in range(clients)
    ]
    await asyncio.sleep(0.05)  # let the clients connect and park at the gate
    t_start = loop.time()
    deadline_box[0] = t_start + duration_s
    start_gate.set()
    per_client = await asyncio.gather(*tasks)
    elapsed = loop.time() - t_start

    for dt in latencies:
        hist.observe(dt)
    completed = int(sum(per_client))
    lat = np.asarray(latencies, dtype=np.float64)
    return LoadTestResult(
        clients=clients,
        duration_s=duration_s,
        op_bytes=op_bytes,
        n_files=n_files,
        completed=completed,
        failed=len(failures),
        goodput_ops_s=completed / elapsed if elapsed > 0 else 0.0,
        p50_s=float(np.percentile(lat, 50)) if len(lat) else 0.0,
        p95_s=float(np.percentile(lat, 95)) if len(lat) else 0.0,
        p99_s=float(np.percentile(lat, 99)) if len(lat) else 0.0,
        mean_s=float(lat.mean()) if len(lat) else 0.0,
        max_s=float(lat.max()) if len(lat) else 0.0,
        bytes_appended=completed * op_bytes,
        statuses=statuses,
    )


def run_loadtest(
    host: Optional[str] = None,
    port: Optional[int] = None,
    clients: int = 50,
    duration_s: float = 5.0,
    op_bytes: int = DEFAULT_OP_BYTES,
    n_files: int = DEFAULT_N_FILES,
    n_providers: int = 8,
    obs: Optional[Observability] = None,
) -> LoadTestResult:
    """Synchronous entry point. With *host*/*port* unset, self-serves: a
    :class:`~repro.server.app.BlobServer` boots on an ephemeral port in
    a background thread, takes the traffic, and is gracefully stopped
    before the result is returned."""
    if (host is None) != (port is None):
        raise ValueError("pass both host and port, or neither")
    if host is not None:
        return asyncio.run(
            run_loadtest_async(
                host, port, clients, duration_s, op_bytes, n_files, obs=obs
            )
        )

    from ..server.app import BlobServer, ServerThread

    server = BlobServer(port=0, n_providers=n_providers, obs=obs)
    with ServerThread(server) as st:
        result = asyncio.run(
            run_loadtest_async(
                server.host,
                server.port,
                clients,
                duration_s,
                op_bytes,
                n_files,
                obs=obs,
            )
        )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    """``repro-loadtest`` — goodput and latency percentiles for the HTTP
    append path. Exits non-zero when any request failed (the CI gate),
    130 with a one-line notice on Ctrl-C."""
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(
        prog="repro-loadtest",
        description=(
            "Closed-loop HTTP append load test against repro-serve "
            "(or a self-served in-process server by default)."
        ),
    )
    parser.add_argument(
        "--url",
        default=None,
        metavar="HOST:PORT",
        help="target an external server (default: self-serve in-process)",
    )
    parser.add_argument("--clients", type=int, default=50, metavar="N")
    parser.add_argument(
        "--duration", type=float, default=5.0, metavar="SECONDS"
    )
    parser.add_argument(
        "--op-bytes", type=int, default=DEFAULT_OP_BYTES, metavar="BYTES"
    )
    parser.add_argument(
        "--files", type=int, default=DEFAULT_N_FILES, metavar="N",
        help="shared target files (many writers, few files)",
    )
    parser.add_argument(
        "--providers", type=int, default=8, metavar="N",
        help="providers for the self-served backend (ignored with --url)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the result document to PATH",
    )
    args = parser.parse_args(argv)
    host = port = None
    if args.url is not None:
        host, _, port_s = args.url.rpartition(":")
        host = host or "127.0.0.1"
        try:
            port = int(port_s)
        except ValueError:
            parser.error(f"bad --url {args.url!r}, expected HOST:PORT")
    try:
        result = run_loadtest(
            host=host,
            port=port,
            clients=args.clients,
            duration_s=args.duration,
            op_bytes=args.op_bytes,
            n_files=args.files,
            n_providers=args.providers,
        )
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (ConnectionError, OSError, RuntimeError) as exc:
        print(f"loadtest failed: {exc}", file=sys.stderr)
        return 1
    print(result.to_text())
    if args.json:
        with open(args.json, "w") as fp:
            json.dump(result.to_dict(), fp, indent=2)
            fp.write("\n")
        print(f"wrote {args.json}")
    return 1 if result.failed else 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
