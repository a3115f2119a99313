"""Lint gate: every function under ``src/repro`` runs under traffic, or
says why it does not.

A feature stays only if traffic exercises it: :mod:`test_dead_knobs`
applies that rule to config fields, and this census applies it to
functions. The census runs the traffic roots (:data:`ROOTS` — every
figure, the figures' output flags on the DES and threaded runtimes, the
examples, the repo benchmark at smoke scale, ``repro-serve`` as its own
process, and one HTTP request per route) with a ``sitecustomize`` on
``PYTHONPATH`` that installs a ``sys.settrace`` hook on every thread of
every Python process they start and records each ``src/repro`` code
object that runs. The bench's ``repro-serve`` child resets
``PYTHONPATH`` and escapes the hook; the ``serve`` root and the route
smoke cover the server instead.

A function no root calls fails the census unless it is exempt
(``__repr__``/``__str__``, or an abstract declaration: a docstring and
then nothing under ``abstractmethod``, ``raise NotImplementedError`` or
``...``) or :data:`NO_TRAFFIC` gives the reason it stays. A table entry
that excuses nothing — it names no function, or its functions gained
traffic — fails too, so the table cannot go stale. A function inside an
uncalled function is reported through its parent only.

Run it with ``pytest -m census tests/lint/test_traffic_census.py``
(~2.5 min on 2 vCPUs; the ``census`` marker keeps it out of the default
run). It writes the uncalled-function report (qualified name, code
lines, reason) to ``census-report.tsv`` in pytest's base temporary
directory. The other tests here run by default: the static half of the
staleness check, and self-tests that drive the real hook over a toy
package.
"""

from __future__ import annotations

import ast
import io
import os
import signal
import socket
import subprocess
import sys
import textwrap
import time
import tokenize
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"

#: every traffic root: a name, then argv after ``python`` (run from a
#: scratch directory, so the relative output paths land there)
ROOTS: List[Tuple[str, List[str]]] = [
    ("fig-all", ["-m", "repro.experiments.cli", "all", "--scale", "quick", "--chart"]),
    (
        "fig7-outputs",
        [
            "-m", "repro.experiments.cli", "fig7", "--trace", "fig7-trace.json",
            "--report", "fig7-report.json", "--chart", "--json", "fig7.json",
        ],
    ),
    ("fig3-report", ["-m", "repro.experiments.cli", "fig3", "--report", "fig3-report.json"]),
    (
        "filecount-trace",
        ["-m", "repro.experiments.cli", "filecount", "--trace", "filecount-trace.json",
         "--report", "filecount-report.json"],
    ),
    *(
        (f"example-{path.stem}", [str(path)])
        for path in sorted((REPO / "examples").glob("*.py"))
    ),
    ("bench-smoke", [str(REPO / "benchmarks" / "e2e" / "bench.py"), "run", "--scale", "smoke"]),
    (
        "route-smoke",
        ["-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(REPO / "tests" / "server" / "test_route_smoke.py")],
    ),
]

_RECOVERY = (
    "recovery half of a fault: fig7 crashes components and never brings "
    "one back; the fault-injection tests do"
)
_CRASH = (
    "crash hook of a component fig7's plan does not crash (fig7 crashes "
    "BlobSeer providers and appenders); the fault-injection tests do"
)
_TASK_FAILURE = (
    "Map/Reduce task-failure and retry path: no root's job loses a task "
    "(tests/mapreduce crash tasks and trackers)"
)
_FS_API = (
    "part of the Hadoop-shaped FileSystem/stream interface both file "
    "systems implement (repro.common.fs); no root's job calls it"
)
_PROBE = "read-only probe the tests use to observe internal state"
_BACKPRESSURE = (
    "a full write buffer pauses reading: every root's client reads each "
    "reply before it sends the next request (tests/server pipeline "
    "requests without reading)"
)
_NULL = (
    "null-object twin of a live instrument: a read of a disabled "
    "registry, which no root makes"
)

#: functions no root calls, and why each stays. A key is a qualified
#: name (``repro.module.Class.method``) or a prefix of one (a module, a
#: class); the entry covers every function under it.
NO_TRAFFIC: Dict[str, str] = {
    # -- tools only tests or benchmarks call --------------------------------
    "repro.engine.recording": (
        "the parity suite's RPC-recording engine wrapper (tests/engine); "
        "moving it out of src/repro would not shrink the program"
    ),
    "repro.experiments.bench": (
        "bench_figure, the figure timer benchmarks/perf gates; moving it "
        "would not shrink the program"
    ),
    "repro.experiments.kernelbench": (
        "the kernel microbench benchmarks/perf gates; moving it would not "
        "shrink the program"
    ),
    "repro.experiments.mdbench": (
        "the metadata microbench benchmarks/perf gates; moving it would "
        "not shrink the program"
    ),
    "repro.sim.resources.Resource.request": (
        "generator-style admission: benchmarks/test_ablation_locking.py "
        "(the paper's lock-the-file ablation) holds its file lock with it"
    ),
    "repro.sim.resources.Resource.release": (
        "pairs with request() in benchmarks/test_ablation_locking.py"
    ),
    "repro.sim.resources.Request": "the ticket request() returns",
    "repro.blobseer.sim_vm.SimVMService.assign_write": (
        "the overwrite path on the DES: no figure overwrites (the live "
        "PUT /blob/{id} reaches the threaded twin)"
    ),
    # -- the threaded group-commit binding ------------------------------------
    "repro.blobseer.version_manager.ThreadedVersionManager.publish_wait": (
        "the queued leg of the threaded group-commit binding, whose other "
        "endpoints are _locked assignments the census cannot see; "
        "repro-serve runs without group commit, and "
        "tests/blobseer/test_group_commit.py::TestThreadedGroupCommit "
        "drives it"
    ),
    # -- fault, retry and error paths ---------------------------------------
    "repro.blobseer.client.BlobSeerService.fail_provider": _CRASH,
    "repro.blobseer.client.BlobSeerService.recover_provider": _RECOVERY,
    "repro.blobseer.provider.Provider.fail": _CRASH,
    "repro.blobseer.provider.Provider.recover": _RECOVERY,
    "repro.blobseer.provider_manager.ProviderManager.mark_up": _RECOVERY,
    "repro.blobseer.simulated.SimBlobSeer.recover_provider": _RECOVERY,
    "repro.engine.des.DesEngine.recover_endpoint": _RECOVERY,
    "repro.engine.des.DesEngine._timeout_fail": (
        "an RPC timeout against a crashed data endpoint, which no root's "
        "operation addresses (tests/faults do)"
    ),
    "repro.blobseer.sim_vm.SimVMService.abandon": (
        "gives back the ticket of a DES update that raised after taking "
        "it; no figure's update raises (the parity suite's abandon "
        "scenario does)"
    ),
    "repro.engine.des.DesEngine.run": (
        "Engine.run on the DES: the figure drivers start protocol "
        "generators with env.process directly; the parity suite calls it"
    ),
    "repro.obs.tracer._NullSpan.set": (
        "tags a failed operation's span; no root's operation fails while "
        "its span is unsampled"
    ),
    "repro.engine.des.DesEngine.sleep": (
        "retry backoff between replica sweeps: only a read that finds "
        "every replica down sleeps"
    ),
    "repro.engine.threaded.ThreadedEngine.sleep": (
        "retry backoff between replica sweeps: only a read that finds "
        "every replica down sleeps"
    ),
    "repro.engine.base.RetryPolicy.backoff": (
        "retry backoff between replica sweeps: only a read that finds "
        "every replica down sleeps"
    ),
    "repro.obs.events.fault_recover": _RECOVERY,
    "repro.hdfs.client.HDFSCluster.fail_datanode": _CRASH,
    "repro.hdfs.client.HDFSCluster.recover_datanode": _RECOVERY,
    "repro.hdfs.namenode.NameNode.mark_down": _CRASH,
    "repro.hdfs.namenode.NameNode.mark_up": _RECOVERY,
    "repro.hdfs.namenode.NameNode.abandon": (
        "drops a crashed writer's unfinished file (HDFS write-once "
        "semantics under a writer failure)"
    ),
    "repro.hdfs.namenode.NameNode.recover_lease": (
        "reclaims a dead writer's lease (HDFS write-once semantics under "
        "a writer failure)"
    ),
    "repro.hdfs.client.HDFSInputStream._dead": (
        "replica failover of HDFS reads under a crashed datanode"
    ),
    "repro.mapreduce.jobtracker.JobInProgress.wake": _TASK_FAILURE,
    "repro.mapreduce.jobtracker.JobInProgress.map_failed": _TASK_FAILURE,
    "repro.mapreduce.jobtracker.JobInProgress.reduce_failed": _TASK_FAILURE,
    "repro.mapreduce.shuffle.MapOutputStore.discard_map": _TASK_FAILURE,
    "repro.mapreduce.tasktracker.TaskTracker.fail": _TASK_FAILURE,
    "repro.mapreduce.tasktracker.TaskTracker.recover": _TASK_FAILURE,
    "repro.mapreduce.io.committers.SeparateFileCommitter.abort_task": _TASK_FAILURE,
    "repro.mapreduce.io.committers.SharedAppendCommitter.abort_task": _TASK_FAILURE,
    "repro.mapreduce.io.committers._BufferedTaskOutput.discard": _TASK_FAILURE,
    "repro.hdfs.client.HDFSOutputStream.discard": _TASK_FAILURE,
    "repro.common.fs.OutputStream.discard": _TASK_FAILURE,
    "repro.sim.core.Event.fail": (
        "delivers a failure to waiters: no root's simulated operation "
        "raises (the kernel tests do)"
    ),
    "repro.server.http.HttpError": (
        "malformed or unroutable requests: input validation no root's "
        "well-formed traffic trips (tests/server send them)"
    ),
    "repro.server.http.Response.error": (
        "the error response for a failed request: input validation no "
        "root's well-formed traffic trips (tests/server send them)"
    ),
    "repro.server.app.HttpConnection.pause_writing": _BACKPRESSURE,
    "repro.server.app.HttpConnection.resume_writing": _BACKPRESSURE,
    # -- the FileSystem interface -------------------------------------------
    "repro.bsfs.client.BSFSFileSystem.delete": _FS_API,
    "repro.bsfs.client.BSFSFileSystem.rename": _FS_API,
    "repro.bsfs.client.BSFSInputStream.size": _FS_API,
    "repro.common.fs.InputStream.seek": _FS_API,
    "repro.common.fs.InputStream.tell": _FS_API,
    "repro.hdfs.client.HDFSInputStream.seek": _FS_API,
    "repro.hdfs.client.HDFSOutputStream.flush": _FS_API,
    "repro.mapreduce.io.committers._BufferedTaskOutput.flush": _FS_API,
    "repro.mapreduce.io.committers._BufferedTaskOutput.tell": _FS_API,
    # -- probes the tests read ----------------------------------------------
    "repro.blobseer.backends.logstore.LogStructuredPageStore.__len__": _PROBE,
    "repro.blobseer.metadata.dht.MetadataDHT.__len__": _PROBE,
    "repro.blobseer.metadata.dht.NodeCache.__len__": _PROBE,
    "repro.bsfs.cache.ReadBlockCache.__len__": _PROBE,
    "repro.bsfs.cache.WriteBehindBuffer.pending": _PROBE,
    "repro.blobseer.version_manager.ThreadedVersionManager.live_lease_timers": (
        "shutdown check: tests assert no lease clock survives a stop"
    ),
    "repro.server.app.BlobServer.live_lease_timers": (
        "shutdown check: tests assert no lease clock survives a stop"
    ),
    "repro.sim.cluster.SimCluster.__len__": _PROBE,
    "repro.sim.core.Environment.event": (
        "a bare untriggered event: the kernel tests' signal"
    ),
    "repro.sim.core.Event.value": _PROBE,
    "repro.sim.disk.Disk.rng": "the setter: tests pin a disk's random stream",
    "repro.obs.metrics.MetricsRegistry.value": (
        "one instrument's value by name: the tests and bench_figure "
        "(benchmarks/perf) read it; the run report reads the snapshot"
    ),
    "repro.obs.metrics.Histogram._skip_ahead": (
        "reservoir sampling past max_samples observations: a long-running "
        "repro-serve (the bench's server child, which escapes the hook)"
    ),
    "repro.obs.metrics._NullHistogram": _NULL,
    "repro.obs.timeseries._NullTimeSeries": _NULL,
    "repro.obs.timeseries.TimeSeries.__len__": _PROBE,
}

#: the hook every census process loads first: record each code object
#: the first time it runs. ``os.write`` to an ``O_APPEND`` file needs no
#: flush at exit, so processes that leave through ``os._exit`` or a
#: signal still report.
HOOK = """\
import os, sys, threading
_PREFIX = {prefix!r}
_FD = os.open(os.path.join({out!r}, "%d.txt" % os.getpid()),
              os.O_WRONLY | os.O_CREAT | os.O_APPEND)
_seen = set()

def _trace(frame, event, arg):
    code = frame.f_code
    if code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(_PREFIX):
            os.write(_FD, ("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno)).encode())

sys.settrace(_trace)
threading.settrace(_trace)
"""


class Function(NamedTuple):
    qualname: str
    path: str
    first: int  #: ``co_firstlineno``: the first decorator's line, else the ``def``
    lines: int  #: code lines, nested functions included
    parent: Optional[int]  #: the enclosing function's ``first``, if nested
    exempt: bool


# -- static side: functions and code lines -------------------------------------


def _docstring(body) -> Optional[ast.Expr]:
    first = body[0] if body else None
    if (
        isinstance(first, ast.Expr)
        and isinstance(first.value, ast.Constant)
        and isinstance(first.value.value, str)
    ):
        return first
    return None


def code_lines(source: str) -> Set[int]:
    """Line numbers that hold code: not blank, not only a comment, not
    part of a module, class or function docstring."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = _docstring(node.body)
            if doc is not None:
                docs.update(range(doc.lineno, doc.end_lineno + 1))
    skip = {
        tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
    }
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docs


def tree_code_lines(root: Path = SRC) -> int:
    """The code lines of every module under *root*."""
    return sum(len(code_lines(p.read_text())) for p in root.rglob("*.py"))


def _is_abstract(fn: ast.AST) -> bool:
    """A declaration with no behaviour: a docstring and then nothing (an
    ``abstractmethod``), ``raise NotImplementedError`` or ``...``."""
    body = fn.body[1:] if _docstring(fn.body) else fn.body
    if not body:
        return any(
            (d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None))
            == "abstractmethod"
            for d in fn.decorator_list
        )
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Raise):
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and stmt.value.value is Ellipsis
    )


def functions(root: Path = SRC) -> List[Function]:
    """Every ``def`` under *root*, named the way ``co_qualname`` names it
    and prefixed with its module (``repro.sim.core.Environment.run``)."""
    found = []
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        source = path.read_text()
        code = code_lines(source)

        def visit(node, prefix: str, parent: Optional[int]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", parent)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    span = range(first, child.end_lineno + 1)
                    found.append(
                        Function(
                            qualname=f"{module}.{prefix}{child.name}",
                            path=str(path),
                            first=first,
                            lines=sum(1 for n in span if n in code),
                            parent=parent,
                            exempt=child.name in ("__repr__", "__str__")
                            or _is_abstract(child),
                        )
                    )
                    visit(child, f"{prefix}{child.name}.<locals>.", first)
                else:
                    visit(child, prefix, parent)

        visit(ast.parse(source), "", None)
    return found


# -- dynamic side: run the roots under the hook ---------------------------------


def install_hook(hook_dir: Path, out_dir: Path, prefix: Path) -> Dict[str, str]:
    """Write the ``sitecustomize`` into *hook_dir*; returns the
    environment that loads it (and finds ``repro``)."""
    hook_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(
        HOOK.format(prefix=str(prefix) + os.sep, out=str(out_dir))
    )
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(hook_dir), str(SRC.parent)])}


def called_sites(out_dir: Path) -> Set[Tuple[str, int]]:
    """``(file, co_firstlineno)`` of every code object any process ran."""
    sites = set()
    for record in out_dir.glob("*.txt"):
        for line in record.read_text().splitlines():
            path, first = line.split("\t")
            sites.add((path, int(first)))
    return sites


def _run(argv: List[str], env: Dict[str, str], cwd: Path, name: str) -> None:
    result = subprocess.run(
        [sys.executable, *argv], env=env, cwd=cwd,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=900,
    )
    assert result.returncode == 0, f"root {name} failed:\n{result.stderr[-2000:]}"


def _exchange(
    sock: socket.socket, replies, method: str, target: str,
    body: bytes = b"", pause: float = 0.0,
) -> Tuple[int, bytes]:
    """One request on a kept-alive socket; its response's status and
    body (the server always sends ``Content-Length``). With a *pause*,
    the body follows the head that many seconds later."""
    head = (
        f"{method} {target} HTTP/1.1\r\nHost: census\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    if pause:
        sock.sendall(head)
        time.sleep(pause)
        sock.sendall(body)
    else:
        sock.sendall(head + body)
    status = int(replies.readline().split()[1])
    length = 0
    while (line := replies.readline()) not in (b"\r\n", b""):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, replies.read(length)


def _serve_root(env: Dict[str, str], cwd: Path) -> None:
    """``repro-serve`` as its own process, driven over one socket and
    stopped by SIGINT (its graceful path): a create, 4 KiB appends and
    a read-back checked byte for byte. The first append's body follows
    its head after a pause, so a request always waits for its bytes."""
    path = "/census/log"
    records = [bytes([65 + i]) * 4096 for i in range(4)]
    with subprocess.Popen(
        [sys.executable, "-m", "repro.server.cli", "--port", "0", "--providers", "4"],
        env=env, cwd=cwd, stdout=subprocess.PIPE, text=True,
    ) as server:
        try:
            url = server.stdout.readline().rsplit("http://", 1)[1].strip()
            host, _, port = url.partition(":")
            with (
                socket.create_connection((host, int(port)), timeout=30) as sock,
                sock.makefile("rb") as replies,
            ):
                assert _exchange(sock, replies, "POST", f"/fs/files{path}")[0] == 201
                for i, record in enumerate(records):
                    status, _ = _exchange(
                        sock, replies, "POST", f"/fs/append{path}", record,
                        pause=0.2 if i == 0 else 0.0,
                    )
                    assert status == 200
                assert _exchange(sock, replies, "GET", f"/fs/files{path}") == (
                    200, b"".join(records)
                )
        finally:
            server.send_signal(signal.SIGINT)
            assert server.wait(timeout=60) == 0, "repro-serve did not stop cleanly"


# -- the verdict ------------------------------------------------------------------


def _covers(key: str, qualname: str) -> bool:
    return qualname == key or qualname.startswith(key + ".")


def uncalled(fns: List[Function], sites: Set[Tuple[str, int]]) -> List[Function]:
    """Functions that never ran though their enclosing scope did."""
    return [
        f
        for f in fns
        if not f.exempt
        and (f.path, f.first) not in sites
        and (f.parent is None or (f.path, f.parent) in sites)
    ]


def unexplained(idle: List[Function], table: Dict[str, str]) -> List[str]:
    return [f.qualname for f in idle if not any(_covers(k, f.qualname) for k in table)]


def stale(fns: List[Function], idle: List[Function], table: Dict[str, str]) -> List[str]:
    """Entries that excuse nothing: ``"<key> (no such function)"`` or
    ``"<key> (now called)"``."""
    out = []
    for key in table:
        if not any(_covers(key, f.qualname) for f in idle):
            named = any(_covers(key, f.qualname) for f in fns)
            out.append(f"{key} ({'now called' if named else 'no such function'})")
    return out


def report(idle: List[Function], table: Dict[str, str]) -> str:
    """TSV: qualified name, code lines, reason (empty when unexplained)."""
    rows = ["qualname\tcode_lines\treason"]
    for f in sorted(idle, key=lambda f: f.qualname):
        reason = next((r for k, r in table.items() if _covers(k, f.qualname)), "")
        rows.append(f"{f.qualname}\t{f.lines}\t{reason}")
    return "\n".join(rows) + "\n"


@pytest.mark.census
def test_every_function_has_a_root_or_a_reason(tmp_path_factory):
    base = tmp_path_factory.getbasetemp()
    out, work = base / "census-calls", base / "census-work"
    work.mkdir()
    env = install_hook(base / "census-hook", out, SRC)
    for name, argv in ROOTS:
        _run(argv, env, work, name)
    _serve_root(env, work)
    fns = functions()
    idle = uncalled(fns, called_sites(out))
    (base / "census-report.tsv").write_text(report(idle, NO_TRAFFIC))
    print(
        f"\ncensus: {len(fns)} functions, {len(idle)} uncalled "
        f"({sum(f.lines for f in idle)} code lines), {len(NO_TRAFFIC)} "
        f"NO_TRAFFIC entries; src/repro {tree_code_lines()} code lines"
    )
    missing = unexplained(idle, NO_TRAFFIC)
    assert not missing, (
        "functions no traffic root calls (delete them with the tests that "
        "only test them, give them a root, or add them to NO_TRAFFIC with "
        "the reason they stay):\n" + "\n".join(missing)
    )
    gone = stale(fns, idle, NO_TRAFFIC)
    assert not gone, "NO_TRAFFIC entries that excuse nothing (delete them):\n" + "\n".join(gone)


def test_every_no_traffic_entry_names_a_function():
    """The static half of the staleness check, cheap enough for every run."""
    names = [f.qualname for f in functions()]
    dangling = [k for k in NO_TRAFFIC if not any(_covers(k, n) for n in names)]
    assert not dangling, "NO_TRAFFIC entries that name nothing:\n" + "\n".join(dangling)
    assert all(reason.strip() for reason in NO_TRAFFIC.values())


# -- the gate itself works: the real hook over a toy package ---------------------

TOY = '''\
"""A toy traffic root."""

from abc import abstractmethod


def called():
    def inner_called():
        return 1

    return inner_called()


def never():
    def inner_never():  # reported through never() only
        return 2

    return inner_never()


def excused():
    return 3


def gained():
    return 4


class Shape:
    def __repr__(self):
        return "Shape()"

    def area(self):
        """Abstract."""
        raise NotImplementedError

    def perimeter(self):
        ...

    @abstractmethod
    def volume(self):
        """Abstract too."""

    @property
    def sides(self):
        return 0


called()
gained()
Shape().sides
'''


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    base = tmp_path_factory.mktemp("toy")
    pkg = base / "src" / "toy"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(TOY)
    out = base / "calls"
    env = install_hook(base / "hook", out, pkg)
    env["PYTHONPATH"] += os.pathsep + str(pkg.parent)
    _run(["-c", "import toy.mod"], env, base, "toy")
    fns = functions(pkg)
    return fns, uncalled(fns, called_sites(out))


def test_census_catches_an_uncalled_function(toy):
    fns, idle = toy
    # exempt: __repr__, the three abstract declarations; inner_never is
    # reported through never()
    assert [f.qualname for f in idle] == ["toy.mod.never", "toy.mod.excused"]
    assert unexplained(idle, {"toy.mod.excused": "r"}) == ["toy.mod.never"]


def test_census_catches_an_entry_naming_nothing(toy):
    fns, idle = toy
    table = {"toy.mod.never": "r", "toy.mod.excused": "r", "toy.mod.renamed": "r"}
    assert stale(fns, idle, table) == ["toy.mod.renamed (no such function)"]


def test_census_catches_an_entry_whose_function_gained_traffic(toy):
    fns, idle = toy
    table = {"toy.mod.never": "r", "toy.mod.excused": "r", "toy.mod.gained": "r"}
    assert stale(fns, idle, table) == ["toy.mod.gained (now called)"]


def test_census_counts_code_lines_not_docstrings_or_comments():
    source = textwrap.dedent(
        '''\
        """Module doc."""

        # a comment
        def f(x):
            """Doc
            string."""
            s = """not a
            docstring"""
            return x  # trailing comment
        '''
    )
    assert sorted(code_lines(source)) == [4, 7, 8, 9]
