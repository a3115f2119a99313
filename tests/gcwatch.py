"""What the cyclic garbage collector can see of a workload — shared by
the ``test_gc_discipline`` modules (DESIGN.md, "Memory and the
collector")."""

import gc
import types
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.sim.core import Event, Process


@pytest.fixture(autouse=True)
def collector_as_found():
    """Whatever a test (or a bug it catches) does to the collector, the
    next test starts from the usual state."""
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    yield
    gc.set_debug(flags)
    gc.garbage.clear()
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@contextmanager
def cyclic_garbage():
    """``with cyclic_garbage() as found:`` — on leaving the block,
    *found* lists every object made inside it that only the cyclic
    collector could free (``gc.DEBUG_SAVEALL`` keeps them for us)."""
    found = []
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield found
        gc.collect()
    finally:
        gc.set_debug(0)
        found.extend(gc.garbage)
        gc.garbage.clear()


def _is_repro_code(code: types.CodeType) -> bool:
    return "/repro/" in code.co_filename


def op_leftovers(objects):
    """The objects among *objects* that an operation makes and should
    have freed by reference count alone: closures and generators of
    ``repro`` code, kernel processes and events."""
    found = Counter()
    for obj in objects:
        if isinstance(obj, types.FunctionType):
            if obj.__closure__ and _is_repro_code(obj.__code__):
                found[f"closure {obj.__qualname__}"] += 1
        elif isinstance(obj, types.GeneratorType):
            if _is_repro_code(obj.gi_code):
                found[f"generator {obj.__qualname__}"] += 1
        elif isinstance(obj, (Process, Event)):
            found[type(obj).__name__] += 1
    return dict(found)
