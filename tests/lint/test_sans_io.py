"""Lint gate: the protocol cores must stay sans-IO.

The whole point of the engine refactor is that
``repro/{blobseer,hdfs,bsfs}/protocol.py`` (and the engine-shared policy
modules, and the read core both file systems share in
``repro/bsfs/cache.py``) contain no runtime bindings: no clock, no threads, no sockets,
and no reach into the simulation kernel. Every effect must flow through
the :class:`~repro.engine.base.Engine` the core was handed. This test
fails CI if anyone re-introduces a direct dependency, or an engine op
that only one runtime implements.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: modules that must remain engine-mediated
SANS_IO_FILES = [
    SRC / "blobseer" / "protocol.py",
    SRC / "hdfs" / "protocol.py",
    SRC / "bsfs" / "protocol.py",
    SRC / "bsfs" / "cache.py",
    SRC / "engine" / "base.py",
    SRC / "engine" / "replica.py",
]

#: stdlib roots that would smuggle a runtime into a protocol core
FORBIDDEN_ROOTS = {"time", "threading", "concurrent", "socket", "asyncio"}

#: repro packages a core must not reach into: the sim kernel, and every
#: concrete engine implementation (a core importing ``engine.aio`` or
#: ``engine.threaded`` is bound to one runtime — the parity suite's
#: whole premise is that it is bound to none)
FORBIDDEN_REPRO = ("sim", "engine.des", "engine.threaded", "engine.aio")


def _forbidden_repro(module: str) -> bool:
    return any(
        module == f"repro.{m}" or module.startswith(f"repro.{m}.")
        for m in FORBIDDEN_REPRO
    )


def _forbidden_relative(module: str) -> bool:
    # ``from ..sim import``, ``from ..engine.threaded import`` — and,
    # for the files living inside the engine package itself, the
    # sibling forms ``from .threaded import`` / ``from .aio import``
    names = FORBIDDEN_REPRO + ("des", "threaded", "aio")
    return any(module == m or module.startswith(f"{m}.") for m in names)


def _violations(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in FORBIDDEN_ROOTS:
                    found.append(f"{path.name}:{node.lineno} import {alias.name}")
                if _forbidden_repro(alias.name):
                    found.append(f"{path.name}:{node.lineno} import {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            root = module.split(".")[0]
            if node.level == 0 and root in FORBIDDEN_ROOTS:
                found.append(f"{path.name}:{node.lineno} from {module} import ...")
            if node.level == 0 and _forbidden_repro(module):
                found.append(f"{path.name}:{node.lineno} from {module} import ...")
            # relative imports (from ..sim import, from .threaded import
            # inside the engine package, etc.)
            if node.level > 0 and _forbidden_relative(module):
                found.append(
                    f"{path.name}:{node.lineno} from {'.' * node.level}{module} "
                    "import ..."
                )
    return found


@pytest.mark.parametrize("path", SANS_IO_FILES, ids=lambda p: str(p.relative_to(SRC)))
def test_protocol_core_is_sans_io(path):
    assert path.exists(), f"expected sans-IO module missing: {path}"
    violations = _violations(path)
    assert not violations, (
        "protocol cores must not bind a runtime directly "
        "(route effects through the engine):\n" + "\n".join(violations)
    )


def test_lint_catches_forbidden_imports(tmp_path):
    """The gate itself works: a poisoned module is flagged."""
    bad = tmp_path / "poisoned.py"
    bad.write_text(
        "import time\n"
        "from threading import Lock\n"
        "from ..sim.core import Event\n"
        "from repro.sim import cluster\n"
        "from repro.engine.aio import AsyncioEngine\n"
        "from ..engine.threaded import ThreadedEngine\n"
        "from .aio import AsyncioEngine\n"
    )
    assert len(_violations(bad)) == 7


def test_lint_allows_engine_base(tmp_path):
    """Importing the engine *interface* stays legal — only concrete
    runtimes are banned."""
    ok = tmp_path / "clean.py"
    ok.write_text(
        "from repro.engine.base import Engine, Payload\n"
        "from ..engine.base import Engine\n"
        "from .base import Engine\n"
    )
    assert _violations(ok) == []


def test_no_timer_threads_anywhere():
    """Leases are entries in the version-manager core's deadline table;
    nothing under ``src/repro`` may start a thread per timeout."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            if "Timer" in names:
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, "threading.Timer is banned:\n" + "\n".join(offenders)


def _des_side(module: str) -> bool:
    """Whether the dotted *module* is on the DES side: the simulator
    (``repro.sim``), its engine, the version manager on the simulation
    clock, the per-system deployments (``*.simulated``) and the figure
    drivers (``repro.experiments``)."""
    return (
        module in ("repro.engine.des", "repro.blobseer.sim_vm")
        or module.split(".")[1:2] in (["sim"], ["experiments"])
        or module.rpartition(".")[2] == "simulated"
    )


def _module_of(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts).removesuffix(".__init__")


def _des_imports(source: str, package: str):
    """Imports of a DES-side module in *source*, a module of the dotted
    *package*; relative imports are resolved against it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(_des_side(t) for t in targets):
            found.append(f"line {node.lineno}")
    return found


def test_live_runtime_never_imports_the_simulator():
    """The threaded and asyncio runtimes, the server and the file
    systems run without the simulator: nothing outside the DES side
    imports it, or any other DES-side module."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = _module_of(path)
        if _des_side(module):
            continue
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]
        offenders.extend(
            f"{path.relative_to(SRC)} {ref}"
            for ref in _des_imports(path.read_text(), package)
        )
    assert not offenders, (
        "the live side imports the DES side:\n" + "\n".join(offenders)
    )


def test_simulator_lint_catches_an_import_from_the_live_side():
    poisoned = (
        "from ..sim.core import Event\n"
        "from .. import sim\n"
        "import repro.sim.cluster\n"
        "from ..engine.des import DesEngine\n"
        "from .simulated import SimBSFS\n"
        "from ..experiments import deploy\n"
        "from .sim_vm import SimVMService\n"
        "from ..blobseer.sim_vm import SimVMService\n"
        "from ..engine.threaded import ThreadedEngine\n"
        "from .client import BSFS\n"
        "from . import namespace\n"
    )
    assert _des_imports(poisoned, "repro.bsfs") == [
        f"line {n}" for n in (1, 2, 3, 4, 5, 6, 8)
    ]
    assert _des_side("repro.sim") and not _des_side("repro.simulation")


#: names the version-manager core may not mention: it takes the time as
#: an argument and is wrapped, never bound, by a runtime — so N of them
#: can sit behind a router
CORE_FORBIDDEN_NAMES = {"threading", "time", "asyncio", "sim", "Event", "Environment"}


def _core_runtime_references(source: str):
    tree = ast.parse(source)
    core = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "VersionManagerCore"
    )
    found = []
    for node in ast.walk(core):
        if isinstance(node, ast.Name) and node.id in CORE_FORBIDDEN_NAMES:
            found.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(f"line {node.lineno}: import inside the core")
    return found


def test_version_manager_core_is_runtime_free():
    source = (SRC / "blobseer" / "version_manager.py").read_text()
    assert _core_runtime_references(source) == []


def test_core_lint_catches_a_clock_read():
    poisoned = (
        "class VersionManagerCore:\n"
        "    def expire(self):\n"
        "        return time.monotonic()\n"
    )
    assert _core_runtime_references(poisoned) == ["line 3: time"]


#: the serving path owns no thread: blocking waits are loop futures fed
#: by the version-manager core's callbacks, never executor jobs
LOOP_ONLY_DIRS = [SRC / "engine", SRC / "server"]
EXECUTOR_NAMES = {"ThreadPoolExecutor", "run_in_executor"}


def _executor_references(source: str):
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        else:
            continue
        found.extend(
            f"line {node.lineno}: {name}" for name in names if name in EXECUTOR_NAMES
        )
    return found


def test_engines_and_server_ship_nothing_to_an_executor():
    offenders = [
        f"{path.relative_to(SRC)} {ref}"
        for root in LOOP_ONLY_DIRS
        for path in sorted(root.rglob("*.py"))
        for ref in _executor_references(path.read_text())
    ]
    assert not offenders, (
        "waits on the serving path stay on the event loop:\n"
        + "\n".join(offenders)
    )


def test_executor_lint_catches_a_wait_pool():
    poisoned = (
        "from concurrent.futures import ThreadPoolExecutor\n"
        "pool = ThreadPoolExecutor(4)\n"
        "def wait(loop, fn):\n"
        "    return loop.run_in_executor(pool, fn)\n"
    )
    assert _executor_references(poisoned) == [
        "line 1: ThreadPoolExecutor",
        "line 2: ThreadPoolExecutor",
        "line 4: run_in_executor",
    ]


#: who may talk to the cyclic collector, and how (DESIGN.md §5d): the
#: kernel's scoped pause, the harness's one collection between
#: deployments and its one freeze of the heap the first deployment
#: finds, the metrics callback. Nobody tunes it, and nothing else
#: freezes it (or walks the frozen list to count it).
GC_ALLOWED = {
    "sim/core.py": {"isenabled", "disable", "enable"},
    "experiments/deploy.py": {"collect", "freeze"},
    "obs/runtime.py": {"callbacks"},
}


def _gc_references(source: str, allowed=frozenset()):
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "gc":
            found.append(f"line {node.lineno}: from gc import ...")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "gc"
            and node.attr not in allowed
        ):
            found.append(f"line {node.lineno}: gc.{node.attr}")
    return found


def test_only_the_kernel_pauses_the_collector_and_nobody_tunes_it():
    offenders = [
        f"{path.relative_to(SRC)} {ref}"
        for path in sorted(SRC.rglob("*.py"))
        for ref in _gc_references(
            path.read_text(),
            GC_ALLOWED.get(path.relative_to(SRC).as_posix(), frozenset()),
        )
    ]
    assert not offenders, "\n".join(offenders)


def test_collector_lint_catches_a_tuned_or_frozen_collector():
    poisoned = (
        "import gc\n"
        "gc.set_threshold(100_000)\n"
        "def serve():\n"
        "    gc.freeze()\n"
        "    gc.disable()\n"
    )
    assert _gc_references(poisoned, {"disable"}) == [
        "line 2: gc.set_threshold",
        "line 4: gc.freeze",
    ]


#: every engine the cores run on; each must implement the whole
#: interface, so no protocol path can reach an op one runtime lacks
ENGINE_IMPLS = {
    "DesEngine": SRC / "engine" / "des.py",
    "ThreadedEngine": SRC / "engine" / "threaded.py",
}


def _class_methods(source: str, name: str):
    """``{method name: def node}`` of class *name* in *source*."""
    cls = next(
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == name
    )
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _raises_not_implemented(fn) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                return True
    return False


def _is_abstract(fn) -> bool:
    return any(
        (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        or (isinstance(d, ast.Name) and d.id == "abstractmethod")
        for d in fn.decorator_list
    )


def _engine_op_gaps(base_source: str, impl_sources):
    """Public ``Engine`` methods that raise ``NotImplementedError``, and
    those an implementation (``{class name: source}``) neither defines
    nor inherits a working body for."""
    found = []
    impls = {
        name: _class_methods(source, name) for name, source in impl_sources.items()
    }
    for name, fn in _class_methods(base_source, "Engine").items():
        if name.startswith("_"):
            continue
        stub = _raises_not_implemented(fn)
        if stub:
            found.append(f"Engine.{name} raises NotImplementedError")
        if stub or _is_abstract(fn):
            found.extend(
                f"{impl} does not implement Engine.{name}"
                for impl, methods in impls.items()
                if name not in methods
            )
    return found


def test_every_engine_implements_every_engine_op():
    """No runtime-only op: a core that reaches an op through one path
    reaches it on every engine."""
    gaps = _engine_op_gaps(
        (SRC / "engine" / "base.py").read_text(),
        {name: path.read_text() for name, path in ENGINE_IMPLS.items()},
    )
    assert not gaps, "\n".join(gaps)


def test_engine_op_lint_catches_a_runtime_only_op():
    base = (
        "class Engine(abc.ABC):\n"
        "    @abc.abstractmethod\n"
        "    def store(self, parent): ...\n"
        "    def rng(self, *names):\n"
        "        return stream(self._seed, *names)\n"
        "    def gather(self, parent, ops):\n"
        "        raise NotImplementedError('gather is DES-only')\n"
        "    def _spanned(self, op):\n"
        "        raise NotImplementedError\n"
    )
    impls = {
        "DesEngine": (
            "class DesEngine(Engine):\n"
            "    def store(self, parent): ...\n"
            "    def gather(self, parent, ops): ...\n"
        ),
        "ThreadedEngine": "class ThreadedEngine(Engine):\n    pass\n",
    }
    assert _engine_op_gaps(base, impls) == [
        "ThreadedEngine does not implement Engine.store",
        "Engine.gather raises NotImplementedError",
        "ThreadedEngine does not implement Engine.gather",
    ]
