"""The live engines and the cyclic garbage collector (DESIGN.md, "Memory
and the collector"): an append or a read on the threaded or the asyncio
engine leaves nothing only the collector can free, and the metadata an
append retains is ints the collector never tracks, beside each leaf's
fragment tuple — so its passes do not grow with history.
(The simulator's half lives in ``tests/sim/test_gc_discipline.py``.)
"""

import asyncio
import gc

from repro.blobseer import BlobSeerService
from repro.blobseer.metadata.dht import MetadataDHT
from repro.blobseer.metadata.segment_tree import build_version, capacity_for
from repro.blobseer.pages import Fragment, fresh_page_id
from repro.common.config import BlobSeerConfig
from repro.engine.base import Payload
from repro.server import BlobServer
from tests.gcwatch import collector_as_found, cyclic_garbage, op_leftovers  # noqa: F401


def test_threaded_ops_leave_no_garbage_that_grows_with_their_number():
    service = BlobSeerService(
        BlobSeerConfig(page_size=4096, metadata_providers=4), n_providers=4
    )
    run, protocol = service.engine.run, service.protocol
    blob = service.create_blob()
    run(protocol.update("c", blob, Payload(b"w" * 5000)))

    def appends_and_reads(n):
        for i in range(n):
            # unaligned: boundary overlays
            run(protocol.update("c", blob, Payload(b"x" * 3000)))
            run(protocol.read("c", blob, i * 100, 2000))

    try:
        with cyclic_garbage() as few:
            appends_and_reads(10)
        with cyclic_garbage() as many:
            appends_and_reads(40)
    finally:
        service.close()
    assert len(many) == len(few), (op_leftovers(few), op_leftovers(many))
    assert op_leftovers(many) == {}


def test_asyncio_ops_leave_no_garbage_that_grows_with_their_number():
    server = BlobServer(n_providers=4)
    run, bsfs = server.engine.run, server.bsfs

    async def appends_and_reads(n):
        for i in range(n):
            await run(bsfs.append_file("c", "/f", Payload(b"y" * 3000)))
            await run(bsfs.read_file("c", "/f", i * 100, 2000))

    async def drive():
        blob = server.service.create_blob(4096)
        await run(bsfs.create_file("c", "/f", blob, 4096))
        await appends_and_reads(2)  # first-use set-up is not steady state
        with cyclic_garbage() as few:
            await appends_and_reads(10)
        with cyclic_garbage() as many:
            await appends_and_reads(40)
        return few, many

    try:
        few, many = asyncio.run(drive())
    finally:
        server.service.close()
    assert len(many) == len(few), (op_leftovers(few), op_leftovers(many))
    assert op_leftovers(many) == {}


def test_keys_and_inner_nodes_are_never_on_the_collectors_lists():
    """Keys and inner nodes' values are ints, which the collector never
    tracks, not even before a first collection. A leaf's value is its
    fragment tuple itself — the only tree object the collector tracks,
    because it holds ``Fragment`` objects."""
    store = MetadataDHT(2)
    changes = {
        i: (Fragment(0, 64, fresh_page_id(1, "w"), 0, ("p0",)),) for i in range(8)
    }
    root = build_version(store, 1, 1, None, 0, changes, capacity_for(8))
    nodes = {k: v for bucket in store._buckets for k, v in bucket.items()}
    inner = [v for v in nodes.values() if type(v) is int]
    leaves = [v for v in nodes.values() if type(v) is tuple]
    assert len(inner) == 7 and len(leaves) == 8 and len(nodes) == 15
    assert {id(v) for v in leaves} == {id(c) for c in changes.values()}
    assert not gc.is_tracked(root)
    assert not any(gc.is_tracked(key) for key in nodes)
    assert not any(gc.is_tracked(value) for value in inner)
    gc.collect()
    assert all(gc.is_tracked(value) for value in leaves)
