"""Lint gate: every configuration knob is read by the program, and
turned by something other than a test.

A field of a dataclass in ``repro/common/config.py`` that nothing under
``src/repro`` reads is an option the tests and benchmarks must still
cover and nobody can observe — ``BlobSeerConfig.client_parallelism``
was validated for ten PRs without a single reader. The first test fails
CI when a field is only ever declared, validated or assigned.

A field that *is* read but that only tests ever move off its default is
a second code path no figure, benchmark workload, example or server run
exercises — PR 10's placement/read-policy/hot-page knobs sat that way
for ten PRs. The second test fails CI unless every field of every
config class is given a non-default value somewhere in the traffic
roots (``src/repro``, ``benchmarks/e2e``, ``examples``) or is listed,
with its reason for staying, in that class's :data:`NO_TRAFFIC` table.

The three metadata fast-path knobs move together, as a named profile:
``paper`` is the defaults and ``BlobSeerConfig.fast()`` is the only
non-test code that may set them; a profile counts as traffic when a
traffic root calls it. The third test fails CI on any other setter, and on a
fourteenth ``BlobSeerConfig`` field.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
CONFIG = SRC / "common" / "config.py"

#: where a knob must be turned to count as used: product code, the repo
#: benchmark's workloads, and the examples — never tests
TRAFFIC_ROOTS = (SRC, REPO / "benchmarks" / "e2e", REPO / "examples")

#: the metadata fast path: set by the profile methods and by nothing else
PROFILE_KNOBS = {"group_commit", "md_cache_nodes", "ns_record_cache"}
PROFILE_METHODS = {"fast"}

_TESTBED = (
    "testbed constant calibrated to the paper's Grid'5000 Orsay cluster; "
    "every figure runs the calibrated value"
)
_RETRY = (
    "retry policy of the fault path (RetryPolicy.from_cluster); only "
    "tests/faults set it"
)

#: per config class: fields no traffic root moves off the default, and
#: why each stays. An entry whose field has acquired traffic, or that
#: names no field, fails the lint too — the table cannot go stale.
NO_TRAFFIC = {
    "BlobSeerConfig": {
        "cache_enabled": (
            "only benchmarks/test_ablation_cache.py (the paper's cache "
            "ablation, outside the traffic roots) and tests turn it off"
        ),
        "metadata_turn_timeout_s": (
            "safety timeout that keeps a live appender from waiting "
            "forever on a stuck predecessor"
        ),
        "page_store_fsync": (
            "durability switch of the log store; the e2e benchmark pins it "
            "off (sandbox fsync is not a device measurement), ROADMAP item "
            "5's restart gate turns it on"
        ),
        "rereplication": (
            "crash repair; ROADMAP item 3's live chaos root drives it"
        ),
    },
    "ExperimentConfig": {
        "hdfs": (
            "the simulated HDFS baseline's settings: fig6 and sup-writes "
            "run it on the defaults (the paper's 64 MB chunks), which only "
            "tests shrink"
        ),
    },
    "MapReduceConfig": {
        "locality_aware": (
            "only benchmarks/test_ablation_locality.py (the paper's "
            "locality ablation, outside the traffic roots) turns it off"
        ),
    },
    "ClusterConfig": {
        "nodes": _TESTBED,
        "nic_bandwidth": _TESTBED,
        "disk_write_bandwidth": _TESTBED,
        "disk_read_bandwidth": _TESTBED,
        "page_cache_hit_ratio": _TESTBED,
        "metadata_rpc_time": _TESTBED,
        "version_assign_time": _TESTBED,
        "commit_push_time": _TESTBED,
        "namespace_rpc_time": _TESTBED,
        "rpc_retry_base": _RETRY,
        "rpc_retry_cap": _RETRY,
        "rpc_max_attempts": _RETRY,
    },
}


def _config_classes(config_source: str):
    """``{class: {field: default AST node}}`` for every annotated field
    of every class."""
    return {
        cls.name: {
            stmt.target.id: stmt.value
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        }
        for cls in ast.parse(config_source).body
        if isinstance(cls, ast.ClassDef)
    }


def _is_default(value: ast.expr, default: ast.expr) -> bool:
    """A literal equal to the field's literal default; anything the lint
    cannot evaluate (a variable, an expression) counts as non-default."""
    return (
        isinstance(value, ast.Constant)
        and isinstance(default, ast.Constant)
        and type(value.value) is type(default.value)
        and value.value == default.value
    )


def _untrafficked(config_source: str, cls_name: str, sources):
    """Fields of *cls_name* that no source sets to a non-default value.

    A field is set by a keyword argument: ``BlobSeerConfig(f=...)``,
    ``replace(cfg, f=...)``, a ``dict(f=...)`` splatted into either — a
    CLI flag reaches a field the same way. Matching is by name, like
    :func:`_names_read`; attribute assignments do not count (``self.f =``
    in an unrelated class would).
    """
    defaults = _config_classes(config_source)[cls_name]
    moved = {
        kw.arg
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg in defaults and not _is_default(kw.value, defaults[kw.arg])
    }
    return [name for name in defaults if name not in moved]


def _calls(tree: ast.AST):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def _profile_methods(config_tree: ast.Module):
    """``{name: FunctionDef}`` of ``BlobSeerConfig``'s profile methods."""
    return {
        stmt.name: stmt
        for cls in config_tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "BlobSeerConfig"
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name in PROFILE_METHODS
    }


def _is_profile_call(call: ast.Call) -> bool:
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in PROFILE_METHODS
    )


def _stray_profile_setters(config_source: str, other_sources):
    """``name:line knob`` for every call that passes a profile knob by
    keyword from outside the profile methods; *other_sources* maps a
    name to its source. Calling a profile method with its own parameter
    (``cfg.fast(group_commit=False)``) is choosing a profile, not
    setting a knob."""
    config_tree = ast.parse(config_source)
    inside = {
        call
        for method in _profile_methods(config_tree).values()
        for call in _calls(method)
    }
    trees = {"config": config_tree} | {
        name: ast.parse(source) for name, source in other_sources.items()
    }
    return [
        f"{name}:{call.lineno} {kw.arg}"
        for name, tree in trees.items()
        for call in _calls(tree)
        if call not in inside and not _is_profile_call(call)
        for kw in call.keywords
        if kw.arg in PROFILE_KNOBS
    ]


def _root_sources():
    """``{path relative to the repo: source}`` of every traffic root."""
    return {
        str(p.relative_to(REPO)): p.read_text()
        for root in TRAFFIC_ROOTS
        for p in sorted(root.rglob("*.py"))
        if p != CONFIG
    }


def _traffic_sources():
    """Every traffic root's source, plus the body of each profile method
    a traffic root calls — a knob the called profile turns has traffic."""
    sources = list(_root_sources().values())
    called = {
        call.func.attr
        for source in sources
        for call in _calls(ast.parse(source))
        if _is_profile_call(call)
    }
    profiles = _profile_methods(ast.parse(CONFIG.read_text()))
    return sources + [
        ast.unparse(method) for name, method in profiles.items() if name in called
    ]


def _names_read(sources):
    """Attribute names loaded (``x.name``, ``getattr(x, "name", ...)``)
    anywhere in *sources*; assignments and keyword arguments are writes
    and do not count."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                names.add(node.args[1].value)
    return names


def _dead_knobs(config_source: str, other_sources):
    read = _names_read(other_sources)
    return [
        f"{cls}.{field}"
        for cls, fields in _config_classes(config_source).items()
        for field in fields
        if field not in read
    ]


def test_every_config_field_is_read_somewhere():
    others = [p.read_text() for p in sorted(SRC.rglob("*.py")) if p != CONFIG]
    dead = _dead_knobs(CONFIG.read_text(), others)
    assert not dead, (
        "config fields nothing under src/repro reads (delete the knob or "
        "the code that was meant to honour it):\n" + "\n".join(dead)
    )


def test_lint_catches_a_knob_nothing_reads():
    """The gate itself works: validating or setting a field is not
    reading it."""
    config = (
        "class DemoConfig:\n"
        "    used: int = 1\n"
        "    looked_up: int = 2\n"
        "    only_validated: int = 3\n"
        "    only_set: int = 4\n"
        "    def validate(self):\n"
        "        assert self.only_validated > 0\n"
    )
    user = (
        "def run(cfg):\n"
        "    cfg.only_set = 5\n"
        "    replace(cfg, only_set=6)\n"
        "    return cfg.used + getattr(cfg, 'looked_up', 0)\n"
    )
    assert _dead_knobs(config, [user]) == [
        "DemoConfig.only_validated",
        "DemoConfig.only_set",
    ]


@pytest.mark.parametrize("cls", sorted(_config_classes(CONFIG.read_text())))
def test_every_knob_has_traffic_or_a_reason(cls):
    fields = _config_classes(CONFIG.read_text())[cls]
    reasons = NO_TRAFFIC.get(cls, {})
    idle = _untrafficked(CONFIG.read_text(), cls, _traffic_sources())
    unexplained = [f for f in idle if f not in reasons]
    assert not unexplained, (
        f"{cls} fields that only tests move off their default (delete the "
        "knob with the path behind it, give it real traffic, or add it to "
        "NO_TRAFFIC with the reason it stays):\n" + "\n".join(unexplained)
    )
    stale = [f for f in reasons if f not in idle]
    assert not stale, (
        f"NO_TRAFFIC entries that name no {cls} field or whose field now "
        "has traffic (delete the entry):\n"
        + "\n".join(f"{f}{'' if f in fields else ' (no such field)'}" for f in stale)
    )


def test_no_traffic_names_config_classes():
    assert set(NO_TRAFFIC) <= set(_config_classes(CONFIG.read_text()))


def test_only_the_profile_methods_set_the_fast_path_knobs():
    config = CONFIG.read_text()
    assert set(_profile_methods(ast.parse(config))) == PROFILE_METHODS
    stray = _stray_profile_setters(config, _root_sources())
    assert not stray, (
        "group_commit / md_cache_nodes / ns_record_cache are set outside "
        "BlobSeerConfig.fast() (pick a profile instead):\n"
        + "\n".join(stray)
    )
    assert len(_config_classes(config)["BlobSeerConfig"]) == 13, (
        "BlobSeerConfig grew or shrank: options only go down (ROADMAP), "
        "and a removal updates this count"
    )


def test_profile_lint_tells_choosing_a_profile_from_setting_a_knob():
    """The gate itself works: a ``replace`` or constructor keyword
    outside the profile methods is a stray setter; the methods' own
    bodies and a call *of* a profile method are not."""
    config = (
        "class BlobSeerConfig:\n"
        "    group_commit: bool = False\n"
        "    def fast(self, group_commit=True):\n"
        "        return replace(self, group_commit=group_commit)\n"
        "    def other(self):\n"
        "        return replace(self, md_cache_nodes=1)\n"
    )
    user = (
        "a = BlobSeerConfig().fast(group_commit=False)\n"
        "b = BlobSeerConfig(ns_record_cache=True)\n"
        "c = replace(a, page_size=1, group_commit=True)\n"
    )
    assert _stray_profile_setters(config, {"user": user}) == [
        "config:6 md_cache_nodes",
        "user:2 ns_record_cache",
        "user:3 group_commit",
    ]


def test_traffic_lint_tells_moved_from_merely_mentioned():
    """The gate itself works: passing the default, or reading the
    field, or assigning an attribute of that name, is not traffic; a
    non-default literal, a computed value and a ``replace`` keyword
    are."""
    config = (
        "class DemoConfig:\n"
        "    literal: int = 1\n"
        "    computed: int = 2\n"
        "    replaced: bool = False\n"
        "    assigned: int = 4\n"
        "    restated: bool = False\n"
        "    only_read: int = 6\n"
        "class OtherConfig:\n"
        "    literal: int = 1\n"
    )
    user = (
        "def run(args, cfg):\n"
        "    cfg = DemoConfig(literal=3, computed=args.n, restated=False)\n"
        "    cfg = replace(cfg, replaced=True)\n"
        "    cfg.assigned = 5\n"
        "    return cfg.only_read\n"
    )
    assert _untrafficked(config, "DemoConfig", [user]) == [
        "assigned",
        "restated",
        "only_read",
    ]
    assert _untrafficked(config, "OtherConfig", []) == ["literal"]
