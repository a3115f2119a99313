"""The simulator and the cyclic garbage collector (DESIGN.md, "Memory
and the collector").

Two contracts:

* :meth:`Environment.run` pauses the collector while it dispatches and
  hands it back exactly as the caller had it — on return, on an
  exception, from a nested run, and when it was already off;
* a DES run gives the collector nothing to find: operations leave no
  cyclic garbage while their deployment lives, and nothing of a
  deployment outlives the one collection after it is dropped. The
  checker that says so is itself checked against a poisoned tree walk
  (a self-recursive closure), in the style of the lints' self-tests.
"""

import gc

import pytest

from repro.blobseer import protocol
from repro.blobseer.metadata import segment_tree
from repro.common.config import (
    BlobSeerConfig,
    ClusterConfig,
    ExperimentConfig,
    HDFSConfig,
)
from repro.common.errors import SimDeadlockError
from repro.common.units import MiB
from repro.experiments import datajoin_exp, microbench, openloop
from repro.experiments.deploy import deploy_bsfs
from repro.sim.core import Environment
from tests.gcwatch import collector_as_found, cyclic_garbage, op_leftovers  # noqa: F401


# -- Environment.run pauses and restores --------------------------------------


class TestRunPausesTheCollector:
    def test_paused_while_dispatching_and_restored_on_return(self):
        env = Environment()
        seen = []

        def proc():
            seen.append(gc.isenabled())
            yield env.timeout(1.0)
            seen.append(gc.isenabled())

        assert gc.isenabled()
        env.run(env.process(proc()))
        assert seen == [False, False]
        assert gc.isenabled()

    @pytest.mark.parametrize("until", [None, 5.0])
    def test_drain_and_horizon_runs_pause_too(self, until):
        env = Environment()
        seen = []
        env.call_in(1.0, lambda: seen.append(gc.isenabled()))
        env.run(until=until)
        assert seen == [False]
        assert gc.isenabled()

    def test_restored_when_a_process_raises(self):
        env = Environment()

        def boom():
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        env.process(boom())  # nobody waits for it: run() re-raises
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        assert gc.isenabled()

    def test_restored_on_deadlock(self):
        env = Environment()
        with pytest.raises(SimDeadlockError):
            env.run(env.event())
        assert gc.isenabled()

    def test_restored_on_a_bad_horizon(self):
        env = Environment()
        env.run(until=2.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)
        assert gc.isenabled()

    def test_nested_run_leaves_the_outer_pause_in_place(self):
        outer, inner = Environment(), Environment()
        seen = []

        def nested():
            inner.call_in(1.0, lambda: seen.append(("inner", gc.isenabled())))
            inner.run()
            # the inner run found the collector off and left it off
            seen.append(("after inner", gc.isenabled()))

        outer.call_in(1.0, nested)
        outer.run()
        assert seen == [("inner", False), ("after inner", False)]
        assert gc.isenabled()

    def test_a_caller_who_disabled_it_gets_it_back_disabled(self):
        env = Environment()
        env.call_in(1.0, lambda: None)
        gc.disable()
        env.run()
        assert not gc.isenabled()


# -- a DES run leaves the collector nothing to find ---------------------------


def small_config():
    return ExperimentConfig(
        cluster=ClusterConfig(nodes=24),
        blobseer=BlobSeerConfig(page_size=4 * MiB, metadata_providers=4),
        hdfs=HDFSConfig(chunk_size=4 * MiB),
        repetitions=1,
    )


def des_appends_and_reads(bsfs, n):
    env = bsfs.env
    client = bsfs.client_nodes[0]
    for i in range(n):
        env.run(env.process(bsfs.append_proc(client, "/f", 1 * MiB)))
        env.run(env.process(bsfs.read_proc(client, "/f", i * MiB, 1 * MiB)))


def test_des_ops_leave_no_garbage_that_grows_with_their_number():
    dep = deploy_bsfs(small_config())
    env = dep.cluster.env
    env.run(env.process(dep.create_proc(dep.client_nodes[0], "/f")))
    des_appends_and_reads(dep, 2)  # first-use set-up is not steady state
    with cyclic_garbage() as few:
        des_appends_and_reads(dep, 8)
    with cyclic_garbage() as many:
        des_appends_and_reads(dep, 32)
    assert len(many) == len(few), (op_leftovers(few), op_leftovers(many))
    assert op_leftovers(many) == {}


#: the figures' drivers at a scale that runs in well under a second each
SMOKE_FIGURES = {
    "fig3": lambda: microbench.concurrent_appends([1, 6], small_config()),
    "fig4": lambda: microbench.reads_under_appends(
        [3],
        small_config(),
        n_readers=4,
        chunks_per_reader=2,
        chunks_per_appender=2,
    ),
    "fig6": lambda: datajoin_exp.sweep(
        [3],
        ExperimentConfig(
            cluster=ClusterConfig(nodes=40),
            blobseer=BlobSeerConfig(metadata_providers=4),
            repetitions=1,
        ),
        datajoin_exp.DataJoinCalibration(
            chunk_bytes=16 * MiB,
            input_bytes=2 * 48 * MiB,
            output_bytes=96 * MiB,
            map_seconds_per_chunk=50.0,
            reduce_seconds_per_output_mib=0.02,
            task_overhead_seconds=1.0,
        ),
    ),
    "fig8": lambda: openloop.open_loop_sweep(
        [60.0], small_config(), 0.5, 40, n_files=4
    ),
}


def keep_deployments_alive(monkeypatch):
    """Make every deployment the drivers build outlive the driver, so
    that what the collector then finds is the *operations'* garbage and
    not the (one big, legitimately cyclic) deployment. Returns the list
    that holds them."""
    kept = []
    for module in (microbench, datajoin_exp, openloop):
        for name in ("deploy_bsfs", "deploy_hdfs"):
            real = getattr(module, name, None)
            if real is None:
                continue

            def deploy(*args, _real=real, **kwargs):
                kept.append(_real(*args, **kwargs))
                return kept[-1]

            monkeypatch.setattr(module, name, deploy)
    return kept


@pytest.mark.parametrize("figure", sorted(SMOKE_FIGURES))
def test_figure_ops_leave_nothing_only_the_collector_can_free(
    figure, monkeypatch
):
    kept = keep_deployments_alive(monkeypatch)
    with cyclic_garbage() as garbage:
        SMOKE_FIGURES[figure]()
    assert kept, "the driver deployed nothing"
    assert op_leftovers(garbage) == {}


def _live_op_objects():
    gc.collect()
    return op_leftovers(gc.get_objects())


@pytest.mark.parametrize("figure", sorted(SMOKE_FIGURES))
def test_nothing_of_a_dropped_deployment_survives_one_collection(figure):
    """A deployment is one reference cycle; the harness collects once
    between deployments, and that must be enough — no process, event,
    generator or closure may hang on through module state."""
    before = _live_op_objects()
    SMOKE_FIGURES[figure]()
    assert _live_op_objects() == before


# the tree walk as it was before it stopped being a closure that calls
# itself: function -> cell -> function, one cycle per read
POISONED_QUERY_PAGES = '''
def query_pages(store, root, lo, hi):
    out = {}

    def walk(key):
        if key is None:
            return
        _, _, key_lo, key_hi = key
        if key_hi <= lo or key_lo >= hi:
            return
        _, fragments, left, right = store.get_node(key)
        if key_hi - key_lo == 1:
            out[key_lo] = fragments
            return
        walk(left)
        walk(right)

    walk(root)
    return out
'''


def test_the_checker_catches_a_self_recursive_closure(monkeypatch):
    namespace = {"__name__": segment_tree.__name__}
    exec(
        compile(POISONED_QUERY_PAGES, segment_tree.__file__, "exec"), namespace
    )
    monkeypatch.setattr(protocol, "query_pages", namespace["query_pages"])
    dep = deploy_bsfs(small_config())
    env = dep.cluster.env
    env.run(env.process(dep.create_proc(dep.client_nodes[0], "/f")))
    des_appends_and_reads(dep, 2)
    with cyclic_garbage() as few:
        des_appends_and_reads(dep, 8)
    with cyclic_garbage() as many:
        des_appends_and_reads(dep, 32)
    assert len(many) > len(few)
    leftovers = op_leftovers(many)
    assert list(leftovers) == ["closure query_pages.<locals>.walk"]
    assert leftovers["closure query_pages.<locals>.walk"] >= 32  # one a read
