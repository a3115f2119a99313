"""Lint gate: the Map/Reduce runtime waits on events, never on a timer.

A tasktracker worker blocks in its job's claim until a task becomes
claimable, and a pipeline feeder blocks until an upstream reduce
completes (both on the job's one ``Condition``). Nothing under
``src/repro/mapreduce`` may sleep to poll, or hand work through a queue
beside the jobtracker. This test fails CI if either comes back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
MAPREDUCE = SRC / "mapreduce"


def _violations(source: str):
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(
                f"line {node.lineno}: import {alias.name}"
                for alias in node.names
                if alias.name.split(".")[0] == "queue"
            )
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "queue":
                found.append(f"line {node.lineno}: from queue import ...")
            elif node.module == "time" and any(
                alias.name == "sleep" for alias in node.names
            ):
                found.append(f"line {node.lineno}: from time import sleep")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "sleep"
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
        ):
            found.append(f"line {node.lineno}: time.sleep")
    return found


def test_mapreduce_runtime_never_sleeps_or_queues():
    offenders = [
        f"{path.relative_to(SRC)} {ref}"
        for path in sorted(MAPREDUCE.rglob("*.py"))
        for ref in _violations(path.read_text())
    ]
    assert not offenders, (
        "the Map/Reduce runtime waits on its jobs' conditions, not on a "
        "timer or a queue:\n" + "\n".join(offenders)
    )


def test_lint_catches_a_sleep_and_a_queue():
    poisoned = (
        "import time\n"
        "import queue\n"
        "from queue import Queue\n"
        "from time import sleep, perf_counter\n"
        "def poll():\n"
        "    time.sleep(0.002)\n"
        "    return time.perf_counter()\n"
    )
    assert _violations(poisoned) == [
        "line 2: import queue",
        "line 3: from queue import ...",
        "line 4: from time import sleep",
        "line 6: time.sleep",
    ]
