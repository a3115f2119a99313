"""Runtime-equivalence property: the simulated and threaded BlobSeer
runtimes drive the SAME protocol, so an identical operation history must
leave identical control-plane state (versions, sizes, page maps shapes)
in both — the guarantee that what the benchmarks cost is what the tests
verify."""

from hypothesis import given, settings, strategies as st

from repro.blobseer import BlobSeerService
from repro.blobseer.metadata.segment_tree import iter_all_pages
from repro.blobseer.simulated import BlobSeerRoles, SimBlobSeer
from repro.common.config import BlobSeerConfig, ClusterConfig
from repro.engine.base import Payload
from repro.sim.cluster import SimCluster

PAGE = 256


def run_threaded(ops):
    svc = BlobSeerService(
        BlobSeerConfig(page_size=PAGE, metadata_providers=3), n_providers=4, seed=5
    )
    client = svc.client("c")
    blob = client.create_blob()
    for kind, a, b in ops:
        if kind == "append":
            client.append(blob, b"\x01" * a)
        else:
            size = svc.version_manager.latest_published(blob).size
            offset = min(a // PAGE * PAGE, size // PAGE * PAGE)
            client.write(blob, offset, b"\x02" * b)
    return svc.version_manager.core, svc.dht, blob


def run_simulated(ops):
    cluster = SimCluster(ClusterConfig(nodes=10))
    names = cluster.names()
    roles = BlobSeerRoles(
        version_manager=names[0],
        provider_manager=names[1],
        metadata_providers=tuple(names[2:5]),
        data_providers=tuple(names[5:]),
    )
    bs = SimBlobSeer(
        cluster, roles, BlobSeerConfig(page_size=PAGE, metadata_providers=3)
    )
    blob = bs.create_blob()
    env = cluster.env
    client = roles.data_providers[0]
    for kind, a, b in ops:
        if kind == "append":
            update = bs.protocol.update(client, blob, Payload(nbytes=a))
        else:
            size = bs.core.latest_published(blob).size
            offset = min(a // PAGE * PAGE, size // PAGE * PAGE)
            update = bs.protocol.update(client, blob, Payload(nbytes=b), offset)
        env.run(env.process(update))
    return bs.core, bs.dht, blob


def page_shape(core, dht, blob):
    """(version, size, per-page fragment extents) for every published
    version — provider names differ between runtimes, extents must not."""
    out = []
    state = core.blob(blob)
    for v in range(0, state.published + 1):
        rec = core.resolve(blob, v)[0]
        pages = {}
        if rec.root is not None:
            for idx, frags in iter_all_pages(dht, rec.root):
                pages[idx] = tuple((f.start, f.length) for f in frags)
        out.append((v, rec.size, pages))
    return out


op = st.tuples(
    st.sampled_from(["append", "write"]),
    st.integers(min_value=1, max_value=1200),
    st.integers(min_value=1, max_value=1200),
)


@settings(max_examples=15, deadline=None)
@given(raw_ops=st.lists(op, min_size=1, max_size=6))
def test_simulated_equals_threaded_control_plane(raw_ops):
    # first op must be an append (a write needs existing data)
    ops = [("append", raw_ops[0][1], raw_ops[0][2])] + raw_ops[1:]
    t_core, t_dht, t_blob = run_threaded(ops)
    s_core, s_dht, s_blob = run_simulated(ops)
    assert page_shape(t_core, t_dht, t_blob) == page_shape(
        s_core, s_dht, s_blob
    )
