"""Configuration dataclasses for the storage systems and the testbed.

Defaults reproduce the paper's deployment on the Grid'5000 Orsay cluster:
270 nodes total; for BSFS one version manager, one provider manager, one
namespace manager, and 20 metadata providers, with the remaining nodes
acting as data providers; for HDFS a dedicated namenode with datanodes on
the remaining nodes; 64 MB pages/chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .units import CHUNK_SIZE, MiB

#: node-cache entries per client stack on the ``fast`` profile: a few
#: thousand nodes hold every hot root-reachable prefix of a few dozen
#: concurrently appended files without approaching the DHT's full
#: contents
FAST_MD_CACHE_NODES = 4096


@dataclass(slots=True)
class BlobSeerConfig:
    """Tunables of the BlobSeer service and its BSFS layer.

    The three metadata fast-path knobs (``group_commit``,
    ``md_cache_nodes``, ``ns_record_cache``) move together, as one of
    two named profiles: ``paper`` — the defaults: the classic serialized
    publish, every node get and namespace lookup an RPC, every figure
    and pinned value bit-identical — and :meth:`fast`. Nothing but
    :meth:`fast` sets them (``tests/lint/test_dead_knobs.py``).
    """

    #: BlobSeer page size; set to the HDFS chunk size for a fair comparison.
    page_size: int = CHUNK_SIZE
    #: page-level replication degree (BlobSeer's fault-tolerance knob)
    replication: int = 1
    #: number of metadata providers forming the DHT
    metadata_providers: int = 20
    #: enable the BSFS client cache (prefetch + write-behind)
    cache_enabled: bool = True
    #: append-ticket lease: an assigned-but-uncommitted version is
    #: aborted (published as a hole) once it has sat at the *head* of
    #: the commit queue for this many seconds, so a dead appender cannot
    #: wedge the publish frontier. 0 disables leases. Must exceed the
    #: worst-case head-to-commit time (page transport may still be in
    #: flight when the turn arrives) — there is no renewal.
    append_lease_s: float = 30.0
    #: how long a threaded client waits for its metadata turn before
    #: aborting its own version and giving up
    metadata_turn_timeout_s: float = 60.0
    #: group commit: ready consecutive appenders hand their change maps
    #: to the version manager and one leader publishes them as a single
    #: batched metadata round. Off by default — the classic serialized
    #: publish stays bit-identical.
    group_commit: bool = False
    #: client-side LRU over immutable metadata tree nodes (entries),
    #: consulted by engines that bill metadata RPCs (the simulator);
    #: 0 disables the cache and every node get reaches the DHT
    md_cache_nodes: int = 0
    #: BSFS namespace: cache path->record lookups at the client, saving
    #: one namespace-manager RPC per append/read on hot files
    ns_record_cache: bool = False
    #: provider persistence backend (``repro.blobseer.backends``):
    #: "memory" (default) or "log" (append-only CRC log)
    page_store_backend: str = "memory"
    #: directory durable backends place their per-provider files under;
    #: required when the backend is not "memory"
    page_store_dir: str | None = None
    #: fsync the log store after every record
    page_store_fsync: bool = False

    def fast(self, group_commit: bool = True) -> "BlobSeerConfig":
        """This deployment on the ``fast`` profile: group commit, the
        node cache and the namespace record cache. The node cache saves
        billed metadata RPCs, so only the simulator (and a recording
        engine) consults it; a live deployment reads the DHT directly.

        *group_commit* ``False`` keeps the two caches only — for a
        deployment whose appenders are few closed loops that never queue
        behind one another, so there is never a batch to publish
        (``repro-serve``, where the namespace record cache is the one
        that acts)."""
        return replace(
            self,
            group_commit=group_commit,
            md_cache_nodes=max(self.md_cache_nodes, FAST_MD_CACHE_NODES),
            ns_record_cache=True,
        )

    def validate(self) -> None:
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.metadata_providers < 1:
            raise ValueError("need at least one metadata provider")
        if self.append_lease_s < 0:
            raise ValueError("append_lease_s must be non-negative")
        if self.metadata_turn_timeout_s <= 0:
            raise ValueError("metadata_turn_timeout_s must be positive")
        if self.md_cache_nodes < 0:
            raise ValueError("md_cache_nodes must be non-negative")
        if self.page_store_backend != "memory" and self.page_store_dir is None:
            raise ValueError(
                f"backend {self.page_store_backend!r} needs page_store_dir"
            )


@dataclass(slots=True)
class HDFSConfig:
    """Tunables of the HDFS reimplementation."""

    #: chunk ("block") size
    chunk_size: int = CHUNK_SIZE
    #: block replication degree
    replication: int = 1

    def validate(self) -> None:
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")


@dataclass(slots=True)
class MapReduceConfig:
    """Tunables of the Map/Reduce framework. Every tasktracker runs two
    reduce slots (``tasktracker.REDUCE_SLOTS``), Hadoop's default."""

    #: map slots per tasktracker
    map_slots: int = 2
    #: use the storage layer's block locations for task placement
    locality_aware: bool = True

    def validate(self) -> None:
        if self.map_slots < 1:
            raise ValueError("map_slots must be >= 1")


@dataclass(slots=True)
class ClusterConfig:
    """Shape and capacities of the simulated Grid'5000 Orsay deployment.

    The fabric is the paper's flat single switch — every node's NIC is
    its only shared link — unless ``racks`` turns it into a two-level
    tree whose rack uplinks are the only links between racks.
    """

    #: total number of machines in the reservation
    nodes: int = 270
    #: NIC capacity per node, bytes/s. The paper's per-client figures
    #: (reads up to ~350-400 MB/s) exceed GigE line rate, so the Orsay
    #: fabric must have been 10G-class (Myrinet); we model its effective
    #: node bandwidth here.
    nic_bandwidth: float = 1150.0 * MiB
    #: per-flow ceiling imposed by the client/server I/O stack (TCP +
    #: copies on 2006-era Opterons) — what actually bounds one client's
    #: throughput on a 10G fabric. bytes/s; 0 disables the cap.
    flow_rate_cap: float = 270.0 * MiB
    #: number of racks in a two-level (rack switch + core) topology;
    #: 0 keeps the paper's flat single-switch fabric. Nodes are assigned
    #: round-robin, intra-rack traffic turns around at the rack switch,
    #: and inter-rack traffic shares each rack's uplink/downlink.
    racks: int = 0
    #: rack uplink = downlink capacity, bytes/s (required when racks > 0)
    rack_bandwidth: float = 0.0
    #: one-way network latency per RPC/flow, seconds
    latency: float = 0.0002
    #: sustained disk write bandwidth per node, bytes/s
    disk_write_bandwidth: float = 70.0 * MiB
    #: sustained disk read bandwidth per node, bytes/s
    disk_read_bandwidth: float = 90.0 * MiB
    #: fraction of reads served from the OS page cache (the
    #: microbenchmarks read recently written data, largely RAM-resident)
    page_cache_hit_ratio: float = 0.9
    #: service time of one metadata RPC at a metadata provider, seconds
    metadata_rpc_time: float = 0.0006
    #: service time of the version manager's critical section, seconds
    version_assign_time: float = 0.0004
    #: service time of a group-commit ready push at the version manager,
    #: seconds — cheaper than a ticket assignment: the VM only files the
    #: change map and answers lead/queued
    commit_push_time: float = 0.0002
    #: service time of one namespace-manager / namenode RPC, seconds
    namespace_rpc_time: float = 0.0008
    #: experiment seed
    seed: int = 20100621  # HPDC'10 workshop date

    def validate(self) -> None:
        if self.nodes < 4:
            raise ValueError("need at least 4 nodes for a deployment")
        for name in (
            "nic_bandwidth",
            "disk_write_bandwidth",
            "disk_read_bandwidth",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (0.0 <= self.page_cache_hit_ratio <= 1.0):
            raise ValueError("page_cache_hit_ratio must be in [0, 1]")
        if self.flow_rate_cap < 0:
            raise ValueError("flow_rate_cap must be non-negative")
        if self.racks < 0:
            raise ValueError("racks must be non-negative")
        if self.racks > 0 and self.rack_bandwidth <= 0:
            raise ValueError("racks > 0 needs a positive rack_bandwidth")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if self.commit_push_time <= 0:
            raise ValueError("commit_push_time must be positive")


@dataclass(slots=True)
class ExperimentConfig:
    """Bundle of every knob an experiment run needs."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    blobseer: BlobSeerConfig = field(default_factory=BlobSeerConfig)
    hdfs: HDFSConfig = field(default_factory=HDFSConfig)
    #: repetitions per data point (the paper runs each test 5 times)
    repetitions: int = 5

    def validate(self) -> None:
        self.cluster.validate()
        self.blobseer.validate()
        self.hdfs.validate()
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
