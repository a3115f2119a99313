"""Lint gate: every way the repo says to start the program resolves.

``pyproject.toml``'s ``[project.scripts]`` and the ``python -m repro.…``
steps of the CI workflow name modules by string. Deleting or renaming a
module leaves them pointing at nothing, and no import notices: an
install or a CI run would fail instead. So each script target must
import and be callable, and each CI module must import.
"""

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def scripts():
    """``[project.scripts]``: script name → ``module:attribute``."""
    text = (REPO / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return dict(re.findall(r'^([\w-]+)\s*=\s*"([^"]+)"', section, re.M))


def ci_modules():
    """Every ``-m repro.…`` module the CI workflow runs."""
    text = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    return sorted(set(re.findall(r"-m\s+(repro(?:\.\w+)+)", text)))


def test_both_sources_name_something():
    assert scripts() and ci_modules()


@pytest.mark.parametrize("name, target", sorted(scripts().items()))
def test_script_target_imports_and_is_callable(name, target):
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.mark.parametrize("module", ci_modules())
def test_ci_module_imports(module):
    importlib.import_module(module)
