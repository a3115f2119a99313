"""The four fixed-work workloads (see README.md for why these four).

Every workload is sized by ``scale`` (1.0 = the committed size) and
builds its inputs from ``seed``; the program under test only ever sees
the generated bytes and offsets. The life cycle is the same for all:

    w = WORKLOADS[name](seed, scale, traced, spans_out)
    w.setup()            # imports, deployment, preload -- timed as set-up
    doc = w.measure()    # the timed window: a fixed amount of work
    errors = w.check()   # output checks; each error is one failed op
    w.teardown()         # always
    w.trace()            # traced runs only: the span/profile summary

``measure`` returns the values every workload has (``ops``,
``host_wall_s``, ``program_cpu_s``, ``peak_rss_mib``, ``failed``) plus
``extra``, the workload's own user-visible numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: scratch space for page stores and server logs (inside the checkout)
TMP = ROOT / ".bench_tmp"

now = time.perf_counter


def _percentiles(samples_s: List[float]) -> Tuple[float, float]:
    """(p50, p99) in milliseconds."""
    p50, p99 = np.percentile(np.asarray(samples_s), [50, 99])
    return float(p50) * 1e3, float(p99) * 1e3


def _own_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pin_self() -> List[int]:
    """Pin this process to the first CPU it may run on, so a
    single-threaded run is never migrated; returns the affinity."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return sorted(os.sched_getaffinity(0))


def _scratch_dir(prefix: str) -> Path:
    TMP.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=TMP))


# -- http_append_small -------------------------------------------------------


class _Conn:
    """One keep-alive HTTP/1.1 connection over a raw socket (the
    generator must cost far less per request than the server does)."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def request(self, head: bytes, body: bytes = b"") -> Tuple[int, bytes]:
        self.sock.sendall(head + body)
        buf = self._buf
        recv = self.sock.recv
        while (end := buf.find(b"\r\n\r\n")) < 0:
            chunk = recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
        status = int(buf[9:12])
        at = buf.find(b"Content-Length:", 0, end) + 15
        length = int(buf[at : buf.find(b"\r", at)])
        need = end + 4 + length
        chunks = [buf]
        have = len(buf)
        while have < need:
            chunk = recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks.append(chunk)
            have += len(chunk)
        buf = b"".join(chunks)
        self._buf = buf[need:]
        return status, buf[end + 4 : need]

    def close(self) -> None:
        self.sock.close()


def _head(method: str, target: str, length: int = 0, extra: str = "") -> bytes:
    return (
        f"{method} {target} HTTP/1.1\r\nHost: bench\r\n{extra}"
        f"Content-Length: {length}\r\n\r\n"
    ).encode("latin-1")


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of *pid*, seconds."""
    with open(f"/proc/{pid}/stat") as fp:
        fields = fp.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class HttpAppendSmall:
    """Two keep-alive connections append 4 KiB records to ONE shared
    file through ``repro-serve`` (closed loop, 64 KiB pages)."""

    name = "http_append_small"
    PAGE = 64 * 1024
    RECORD = 4 * 1024
    CONNS = 2
    OPS_PER_CONN = 10_000
    FILE = "/bench/shared"

    def __init__(self, seed, scale, traced, spans_out=None) -> None:
        self.n_per_conn = max(1, round(self.OPS_PER_CONN * scale))
        self.traced = traced
        self.spans_out = spans_out
        # records carry (conn, seq) XOR a seed-derived mask
        self.mask = int.from_bytes(
            hashlib.sha256(f"http:{seed}".encode()).digest()[:8], "big"
        )
        self.proc: Optional[subprocess.Popen] = None
        self.conns: List[_Conn] = []
        self.control: Optional[_Conn] = None
        self.dir: Optional[Path] = None
        self.affinity: Dict[str, List[int]] = {}

    def _record(self, conn: int, seq: int) -> bytes:
        tag = ((conn << 48) | seq) ^ self.mask
        return tag.to_bytes(8, "big") * (self.RECORD // 8)

    def setup(self) -> None:
        self.dir = _scratch_dir("http-")
        serve = ["--port", "0", "--providers", "8"]
        if self.traced:
            cmd = [sys.executable, str(HERE / "traced_server.py"),
                   "--summary-out", str(self.dir / "summary.json")]
            if self.spans_out:
                cmd += ["--spans-out", self.spans_out]
            cmd += ["--", *serve]
        else:
            cmd = [sys.executable, "-m", "repro.server.cli", *serve]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cpus = sorted(os.sched_getaffinity(0))
        with open(self.dir / "server.err", "wb") as err:
            self.proc = subprocess.Popen(
                cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=err
            )
        if len(cpus) >= 2:
            # one CPU each: unpinned, cross-core hand-offs of the
            # server's interpreter lock move throughput by tens of percent
            os.sched_setaffinity(self.proc.pid, {cpus[0]})
            os.sched_setaffinity(0, {cpus[1]})
        self.affinity = {
            "server": sorted(os.sched_getaffinity(self.proc.pid)),
            "generator": sorted(os.sched_getaffinity(0)),
        }
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        self.control = _Conn("127.0.0.1", port)
        status, body = self.control.request(
            _head("POST", f"/fs/files{self.FILE}?page_size={self.PAGE}")
        )
        if status != 201:
            raise RuntimeError(f"file create failed: {status} {body!r}")
        self.conns = [_Conn("127.0.0.1", port) for _ in range(self.CONNS)]

    def _mark(self, kind: str) -> None:
        status, _ = self.control.request(
            _head("GET", "/healthz", extra=f"X-Bench-Mark: {kind}\r\n")
        )
        if status != 200:
            raise RuntimeError(f"healthz returned {status}")

    def measure(self) -> Dict[str, object]:
        n = self.n_per_conn
        head = _head("POST", f"/fs/append{self.FILE}", self.RECORD)
        barrier = threading.Barrier(self.CONNS + 1)
        latencies: List[List[float]] = [[] for _ in self.conns]
        failed = [0] * self.CONNS
        ends = [0.0] * self.CONNS

        def client(c: int) -> None:
            conn, lat, record = self.conns[c], latencies[c], self._record
            barrier.wait()
            try:
                for seq in range(n):
                    body = record(c, seq)
                    t0 = now()
                    status, _ = conn.request(head, body)
                    lat.append(now() - t0)
                    if not 200 <= status < 300:
                        failed[c] += 1
            except (OSError, ValueError) as exc:
                print(f"connection {c}: {exc!r}", file=sys.stderr)
                failed[c] += n - len(lat)
            ends[c] = now()

        threads = [
            threading.Thread(target=client, args=(c,)) for c in range(self.CONNS)
        ]
        for t in threads:
            t.start()
        self._mark("start")
        cpu0 = _proc_cpu_s(self.proc.pid)
        barrier.wait()
        t_start = now()
        for t in threads:
            t.join()
        wall = max(ends) - t_start
        cpu = _proc_cpu_s(self.proc.pid) - cpu0
        self._mark("end")
        rss = _proc_peak_rss_mib(self.proc.pid)

        lat = [x for per_conn in latencies for x in per_conn]
        p50, p99 = _percentiles(lat)
        ops = self.CONNS * n
        return {
            "ops": ops,
            "failed": sum(failed),
            "host_wall_s": wall,
            "program_cpu_s": cpu,
            "peak_rss_mib": rss,
            "mean_latency_us": sum(lat) / len(lat) * 1e6,
            "affinity": self.affinity,
            "extra": {
                "append_ops_s": ops / wall,
                "append_p50_ms": p50,
                "append_p99_ms": p99,
                "append_samples": len(lat),
                "server_cpu_us_per_op": cpu / ops * 1e6,
            },
        }

    def check(self) -> List[str]:
        """Read the file back in 1 MiB ranges: right size, every record
        uniform in its tag, each (conn, seq) exactly once, and each
        connection's seqs in offset order."""
        errors: List[str] = []
        total = self.CONNS * self.n_per_conn * self.RECORD
        next_seq = [0] * self.CONNS
        reps = self.RECORD // 8
        offset = 0
        while offset < total:
            length = min(1 << 20, total - offset)
            status, data = self.control.request(
                _head("GET", f"/fs/files{self.FILE}?offset={offset}&length={length}")
            )
            if status != 200 or len(data) != length:
                errors.append(f"read at {offset}: status {status}, {len(data)} bytes")
                return errors
            for at in range(0, length, self.RECORD):
                tag = data[at : at + 8]
                if data[at : at + self.RECORD] != tag * reps:
                    errors.append(f"record at {offset + at} is not uniform")
                    continue
                value = int.from_bytes(tag, "big") ^ self.mask
                conn, seq = value >> 48, value & ((1 << 48) - 1)
                if conn >= self.CONNS:
                    errors.append(f"record at {offset + at}: unknown tag")
                elif seq != next_seq[conn]:
                    errors.append(
                        f"record at {offset + at}: ({conn}, {seq}) where "
                        f"({conn}, {next_seq[conn]}) belongs"
                    )
                    next_seq[conn] = max(next_seq[conn], seq + 1)
                else:
                    next_seq[conn] += 1
            offset += length
        for conn, seen in enumerate(next_seq):
            if seen != self.n_per_conn:
                errors.append(f"connection {conn}: {seen} of {self.n_per_conn} records")
        status, body = self.control.request(_head("GET", f"/fs/stat{self.FILE}"))
        size = json.loads(body).get("size") if status == 200 else None
        if size != total:
            errors.append(f"file size {size}, expected {total}")
        return errors

    def teardown(self) -> None:
        for conn in [self.control, *self.conns]:
            if conn is not None:
                conn.close()
        if self.proc is not None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                code = self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                code = self.proc.wait()
            self.proc.stdout.close()
            if code != 0:
                sys.stderr.write((self.dir / "server.err").read_text())
                raise RuntimeError(f"server exited with {code}")

    def trace(self) -> Dict[str, object]:
        with open(self.dir / "summary.json") as fp:
            return json.load(fp)

    def cleanup(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)


# -- lib_rw_large ------------------------------------------------------------


class LibRwLarge:
    """One thread appends 24 KiB records through the BSFS library while
    a second issues 16 KiB preads of the same growing file."""

    name = "lib_rw_large"
    PAGE = 16 * 1024
    RECORD = 24 * 1024
    READ = 16 * 1024
    PRELOAD = 300
    RECORDS = 8_000
    SEQUENTIAL_SHARE = 0.25
    FILE = "/bench/log"

    def __init__(self, seed, scale, traced, spans_out=None) -> None:
        self.seed = seed
        self.n = max(1, round(self.RECORDS * scale))
        self.traced = traced
        self.spans_out = spans_out
        self.rec = None
        self.dir: Optional[Path] = None
        self.dep = None
        self.reader = None
        self.read_failures = 0
        self.affinity: List[int] = []

    def _record(self, index: int) -> bytes:
        block = hashlib.blake2b(
            f"{self.seed}:{index}".encode(), digest_size=16
        ).digest()
        return block * (self.RECORD // 16)

    def _expected(self, offset: int, length: int) -> bytes:
        out = []
        while length > 0:
            index, within = divmod(offset, self.RECORD)
            take = min(length, self.RECORD - within)
            out.append(self._record(index)[within : within + take])
            offset += take
            length -= take
        return b"".join(out)

    def _append(self, fs, index: int) -> None:
        with fs.append(self.FILE) as out:
            out.write(self._record(index))

    def setup(self) -> None:
        # unpinned, as a Hadoop task would run: pinned to one CPU the
        # two threads hand the interpreter lock over on-core and the run
        # is twice as fast, which is not what a user of the library sees
        self.affinity = sorted(os.sched_getaffinity(0))
        from repro.bsfs.client import BSFS
        from repro.common.config import BlobSeerConfig

        if self.traced:
            import spans

            self.rec = spans.Recorder()
            spans.install(self.rec, "threaded")
        self.dir = _scratch_dir("lib-")
        self.dep = BSFS(
            config=BlobSeerConfig(
                page_size=self.PAGE,
                replication=2,
                metadata_providers=4,
                page_store_backend="log",
                page_store_dir=str(self.dir / "pages"),
                # the sandbox's fsync is not a device measurement
                page_store_fsync=False,
            ),
            n_providers=4,
        )
        if self.traced:
            spans.dht_counter_sources(self.rec, self.dep.service.dht)
        self.fs = self.dep.file_system("appender")
        self.fs.create(self.FILE).close()
        for i in range(self.PRELOAD):
            self._append(self.fs, i)
        self.reader = self.dep.file_system("reader").open(self.FILE)

    def measure(self) -> Dict[str, object]:
        rec, fs, reader = self.rec, self.fs, self.reader
        # traced: one root span per client op, parent of all it calls
        client_op = rec.client_op if rec else lambda *_: contextlib.nullcontext()
        barrier = threading.Barrier(3)
        done = threading.Event()
        append_lat: List[float] = []
        read_lat: List[float] = []
        append_errors: List[str] = []
        ends = [0.0, 0.0]

        def appender() -> None:
            barrier.wait()
            try:
                for i in range(self.PRELOAD, self.PRELOAD + self.n):
                    t0 = now()
                    with client_op(i, "append"):
                        self._append(fs, i)
                    append_lat.append(now() - t0)
            except Exception as exc:  # noqa: BLE001 - counted as failed ops
                append_errors.append(repr(exc))
            finally:
                ends[0] = now()
                done.set()

        def read(sequential: bool, u: float, prev_end: int):
            """One reader op, as a task following a growing file does
            it: learn the size, then pread inside it."""
            size = reader.refresh_size()
            if sequential and prev_end + self.READ <= size:
                offset = prev_end
            else:
                offset = int(u * (size - self.READ))
            return offset, reader.pread(offset, self.READ)

        def read_loop() -> None:
            rng = random.Random(self.seed)
            k, prev_end = 0, 0
            barrier.wait()
            while not done.is_set():
                sequential = rng.random() < self.SEQUENTIAL_SHARE
                u = rng.random()
                t0 = now()
                with client_op(-2 - k, "read"):
                    offset, data = read(sequential, u, prev_end)
                read_lat.append(now() - t0)
                if data != self._expected(offset, self.READ):
                    self.read_failures += 1
                prev_end = offset + self.READ
                k += 1
            ends[1] = now()

        threads = [threading.Thread(target=appender), threading.Thread(target=read_loop)]
        for t in threads:
            t.start()
        if rec is not None:
            rec.mark("start")
        cpu0 = time.process_time()
        barrier.wait()
        t_start = now()
        for t in threads:
            t.join()
        cpu = time.process_time() - cpu0
        if rec is not None:
            rec.mark("end")
        self.append_errors = append_errors
        wall = ends[0] - t_start
        self.user_bytes = (self.PRELOAD + self.n) * self.RECORD
        self.on_disk = sum(
            f.stat().st_size for f in (self.dir / "pages").iterdir()
        )
        a50, a99 = _percentiles(append_lat) if append_lat else (0.0, 0.0)
        r50, _ = _percentiles(read_lat)
        latencies = append_lat + read_lat
        return {
            "ops": self.n,
            "failed": self.n - len(append_lat) + self.read_failures,
            "host_wall_s": wall,
            "program_cpu_s": cpu,
            "peak_rss_mib": _own_rss_mib(),
            "mean_latency_us": sum(latencies) / len(latencies) * 1e6,
            "client_ops": len(latencies),
            "affinity": {"process": self.affinity},
            "extra": {
                "append_ops_s": len(append_lat) / wall,
                "append_p50_ms": a50,
                "append_p99_ms": a99,
                "append_samples": len(append_lat),
                "read_ops_s": len(read_lat) / (ends[1] - t_start),
                "read_p50_ms": r50,
                "read_samples": len(read_lat),
                "stored_bytes_per_user_byte": self.on_disk / self.user_bytes,
            },
        }

    def check(self) -> List[str]:
        errors = list(self.append_errors)
        if self.read_failures:
            errors.append(f"{self.read_failures} reads returned wrong bytes")
        user = self.user_bytes
        size = self.fs.get_status(self.FILE).size
        if size != user:
            errors.append(f"file size {size}, expected {user}")
        held = sum(p.bytes_stored for p in self.dep.service.providers.values())
        if held != 2 * user:
            errors.append(f"providers hold {held} bytes, expected {2 * user}")
        if self.on_disk < held:
            errors.append(
                f"page store holds {self.on_disk} bytes, fewer than {held}"
            )
        return errors

    def teardown(self) -> None:
        if self.reader is not None:
            self.reader.close()
        if self.dep is not None:
            self.dep.service.close()

    def trace(self) -> Dict[str, object]:
        if self.spans_out:
            self.rec.dump(self.spans_out)
        summary = self.rec.summary()
        counters = self.dep.metrics.counters
        summary["cache"] = {
            "hits": counters["bsfs.cache.hits"],
            "misses": counters["bsfs.cache.misses"],
        }
        return summary

    def cleanup(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)


# -- the DES workloads ---------------------------------------------------------


class _SimWorkload:
    """Shared shape of the two simulator workloads: *passes* identical
    passes (one when profiled), counters from a metrics-only
    ``Observability``, ``cProfile`` when traced."""

    #: host seconds one pass takes on the reference box
    PASS_S = 1.0

    def __init__(self, seed, scale, traced, spans_out=None) -> None:
        # the simulated series are pinned bit for bit, so the DES keeps
        # ClusterConfig.seed and --seed is only recorded
        self.smoke = scale < 0.25
        self.passes = 1 if traced else max(1, round(10.0 * scale / self.PASS_S))
        self.traced = traced
        self.errors: List[str] = []
        self.attempted = 0
        self.profile = None
        self.counters: Dict[str, float] = {}

    def setup(self) -> None:
        self.affinity = _pin_self()
        # what one_pass imports, so that the import cost is set-up time
        import repro.experiments.figures  # noqa: F401
        import repro.experiments.openloop  # noqa: F401

    def _obs(self):
        from repro.obs import Observability
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import Tracer

        return Observability(
            tracer=Tracer(enabled=False),
            registry=MetricsRegistry(default_hist_max_samples=4096),
        )

    def one_pass(self, obs) -> None:
        raise NotImplementedError

    def measure(self) -> Dict[str, object]:
        if self.traced:
            import cProfile

            self.profile = cProfile.Profile()
        cpu0 = time.process_time()
        t0 = now()
        for _ in range(self.passes):
            obs = self._obs()
            if self.profile is not None:
                self.profile.enable()
            try:
                self.one_pass(obs)
            finally:
                if self.profile is not None:
                    self.profile.disable()
            for name, value in obs.registry.counters().items():
                self.counters[name] = self.counters.get(name, 0.0) + value
            sizes = obs.registry.histograms().get("vm.group_commit_size")
            if sizes is not None and sizes.count:
                self.counters["vm.group_commit_members"] = (
                    self.counters.get("vm.group_commit_members", 0.0) + sizes.total
                )
        wall = now() - t0
        cpu = time.process_time() - cpu0
        events = self.counters.get("sim.kernel.events", 0.0)
        return {
            "ops": self.attempted,
            "failed": 0,  # every failure here is a failed check
            "host_wall_s": wall,
            "program_cpu_s": cpu,
            "peak_rss_mib": _own_rss_mib(),
            "passes": self.passes,
            "affinity": {"process": self.affinity},
            "extra": {
                "sim_events": events,
                "sim_events_per_s": events / wall,
                **self.extra(),
            },
        }

    def extra(self) -> Dict[str, float]:
        return {}

    def check(self) -> List[str]:
        return self.errors

    def teardown(self) -> None:
        pass

    def cleanup(self) -> None:
        pass

    def trace(self) -> Dict[str, object]:
        import spans

        return {
            "host_s": spans.profile_layers(self.profile),
            "counters": self.counters,
        }


class SimFigs(_SimWorkload):
    """The paper's closed-loop figures on the simulator; the series
    must equal ``golden.json``."""

    name = "sim_figs"
    PASS_S = 5.4
    FULL = (("fig3", "paper"), ("fig4", "quick"), ("fig5", "quick"), ("fig6", "paper"))
    SMOKE = (("fig3", "quick"),)

    def setup(self) -> None:
        super().setup()
        with open(HERE / "golden.json") as fp:
            self.golden = json.load(fp)

    def one_pass(self, obs) -> None:
        from repro.experiments.figures import ALL_FIGURES

        for fig, fig_scale in self.SMOKE if self.smoke else self.FULL:
            result = ALL_FIGURES[fig](scale=fig_scale, obs=obs)
            golden = self.golden[f"{fig}:{fig_scale}"]
            for series in result.series:
                want = golden.get(series.label, [])
                self.attempted += len(series.ys)
                if len(want) != len(series.ys):
                    self.errors.append(f"{fig} {series.label!r}: {len(series.ys)} points")
                    continue
                for x, got, ref in zip(series.xs, series.ys, want):
                    if abs(got - ref) > 1e-9 * abs(ref):
                        self.errors.append(
                            f"{fig} {series.label!r} at {x}: {got!r} != {ref!r}"
                        )


class SimOpenLoop(_SimWorkload):
    """fig8's open-loop sweep: 20k flyweight clients, Poisson arrivals,
    group commit and the metadata caches on."""

    name = "sim_openloop"
    PASS_S = 8.0
    #: (offered loads ops/s, seconds of arrivals, clients) -- fig8 "quick"
    FULL = ((250.0, 500.0, 1000.0, 2000.0, 12500.0), 2.0, 20_000)
    SMOKE = ((1000.0, 12500.0), 0.1, 2_000)

    def one_pass(self, obs) -> None:
        from repro.common.config import ExperimentConfig
        from repro.experiments.openloop import open_loop_sweep

        loads, duration, clients = self.SMOKE if self.smoke else self.FULL
        points = open_loop_sweep(
            loads, ExperimentConfig(repetitions=1), duration, clients, obs=obs
        )
        for load, point in zip(loads, points):
            done = len(point.latencies_s)
            self.attempted += point.ops
            if done != point.ops:
                self.errors.extend(
                    [f"offered {load:g}/s: {done} of {point.ops} ops completed"]
                    * (point.ops - done)
                )
        self.points = dict(zip(loads, points))

    def extra(self) -> Dict[str, float]:
        return {
            "sim_plateau_ops_s": self.points[12500.0].goodput_ops_s,
            "sim_p99_ms_at_1000": self.points[1000.0].p99_latency_s * 1e3,
        }


WORKLOADS = {
    w.name: w for w in (HttpAppendSmall, LibRwLarge, SimFigs, SimOpenLoop)
}
