"""Lint gate: every configuration knob is read by the program.

A field of a dataclass in ``repro/common/config.py`` that nothing under
``src/repro`` reads is an option the tests and benchmarks must still
cover and nobody can observe — ``BlobSeerConfig.client_parallelism``
was validated for ten PRs without a single reader. This test fails CI
when a field is only ever declared, validated or assigned.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
CONFIG = SRC / "common" / "config.py"


def _declared_fields(config_source: str):
    """``Class.field`` for every annotated field of every class."""
    return [
        f"{cls.name}.{stmt.target.id}"
        for cls in ast.parse(config_source).body
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
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
        field
        for field in _declared_fields(config_source)
        if field.split(".")[1] not in read
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
