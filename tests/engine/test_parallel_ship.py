"""The DES ships an append's pages in parallel on the one write path.

``BlobSeerProtocol._ship`` makes the store of every ``(page, replica)``
before it awaits any, and a DES op starts when it is made. So on an
idle cluster an 8-page append's ship stage pays one network latency,
like a one-page append, not eight. A protocol that awaited each store
before making the next would pay eight.
"""

from repro.blobseer.simulated import BlobSeerRoles, SimBlobSeer
from repro.common.config import BlobSeerConfig, ClusterConfig
from repro.engine.base import Payload
from repro.obs import Observability
from repro.sim.cluster import SimCluster

PAGE = 4096


def _deploy(page_size, obs=None):
    """A DES BlobSeer on an idle 16-node cluster, eight data providers,
    and the node its client runs on."""
    cluster = SimCluster(ClusterConfig(nodes=16, seed=3))
    names = cluster.names()
    roles = BlobSeerRoles(
        version_manager=names[0],
        provider_manager=names[1],
        metadata_providers=tuple(names[2:5]),
        data_providers=tuple(names[5:13]),
    )
    config = BlobSeerConfig(page_size=page_size, metadata_providers=3)
    return SimBlobSeer(cluster, roles, config, obs=obs), names[14]


def _append(sb, client, blob, nbytes):
    env = sb.env
    return env.run(
        env.process(sb.protocol.update(client, blob, Payload(nbytes=nbytes)))
    )


def _ship_spans(page_counts):
    """The ``pages.ship`` span length of one append per entry of
    *page_counts*, run one after another on an idle cluster."""
    obs = Observability.on()
    sb, client = _deploy(PAGE, obs)
    blob = sb.create_blob()
    for pages in page_counts:
        _append(sb, client, blob, pages * PAGE)
    ships = [s for s in obs.tracer.snapshot() if s.name == "pages.ship"]
    assert [s.args["pages"] for s in ships] == list(page_counts)
    return [s.end - s.start for s in ships], sb.cluster.config.latency


def test_eight_page_ship_pays_one_latency():
    (one, eight), latency = _ship_spans([1, 8])
    # both pay the one latency leg; eight pages add only their bytes
    # on the client's NIC, far less than a second latency
    assert latency <= one <= eight < one + latency


def test_a_store_that_times_out_before_its_turn_is_rerouted():
    """The provider placed for page 1 crashes right after placement.
    Its store times out while page 0's store, far longer than the RPC
    timeout, is still being awaited; the failure waits for its turn,
    and page 1 lands on a substitute."""
    big = 256 * 1024 * 1024
    sb, client = _deploy(big)
    pm = sb.provider_manager
    crashed = []

    def allocate_then_crash(sizes, replication=1):
        placements = type(pm).allocate(pm, sizes, replication)
        if not crashed:
            crashed.append(placements[1][0])
            sb.fail_provider(crashed[0])
        return placements

    pm.allocate = allocate_then_crash
    blob = sb.create_blob()
    assert _append(sb, client, blob, 2 * big)[:2] == (1, 0)
    assert sb.env.now > 2 * sb.engine.retry.rpc_timeout
    holders = [providers for _off, _len, providers in sb.layout(blob)]
    assert len(holders) == 2 and crashed[0] not in holders[1]
