"""Flow-level network model with max-min fair bandwidth sharing.

Each node owns an egress ("up") and ingress ("down") NIC capacity; an
optional backbone capacity models a blocking fabric. A *transfer* is a
fluid flow from one node to another: concurrent flows share the NICs
according to the classic progressive-filling (max-min fair) allocation,
which is the standard fluid approximation of many TCP streams over a
switched Ethernet — the regime of the paper's Grid'5000 Orsay cluster.

A run is a sequence of fluid intervals with piecewise-constant rates.
Two allocators implement the same max-min semantics:

* ``allocator="incremental"`` (default) — flow arrivals and completions
  mark the resources they cross *dirty* and defer the refill to the
  kernel's end-of-timestep flush (:meth:`Environment.add_flush_hook`):
  all same-instant churn — a reducer wave starting ``n_maps`` fetches,
  a barrier of symmetric flows finishing together — costs **one**
  reallocation instead of one per flow. The deferral is exact, not an
  approximation: rates are only observable across time advancement, and
  the flush runs after every same-instant event but before the clock
  moves. At the flush, only the *connected component* of flows that
  (transitively) share a NIC/backbone resource with a dirty resource is
  refilled; a per-resource membership index keeps disjoint traffic
  untouched. The refill itself is a water-filling max-min solve — a
  saturation-level heap finds successive bottleneck resources in
  O((F+R) log R) rather than iterating uniform increments over the
  whole component — with fast paths for the two common shapes: every
  flow capped by the per-flow rate ceiling, and a single bottleneck
  resource spanning the whole component (e.g. the backbone). Progress
  is accounted lazily per flow — ``(last_update, rate)`` — and
  completions live in a heap, so an event never sweeps the whole flow
  table. This is what lets the kernel scale to thousands of concurrent
  flows (the regime of the paper's 246-client sweeps and the data
  join's ``n_reducers × n_maps`` shuffle).
* ``allocator="reference"`` — the original full recompute: every event
  settles every active flow and refills the entire flow set from
  scratch. O(flows²·rounds) over a fluid sequence, but trivially
  correct; the incremental allocator is differentially tested against
  it (see ``check_reference``).

Max-min fairness decomposes exactly over connected components of the
flow/resource sharing graph, so the scoped refill is not an
approximation — and the graph that matters has an edge only through a
resource that *can bind*. Every non-local flow has a static rate
``bound`` (the narrowest capacity on its path, or the per-flow cap if
that is lower) which no feasible allocation exceeds, and every resource
keeps ``demand``, the sum of its members' bounds. A resource whose
``demand`` does not exceed its capacity carries at most ``demand`` under
*any* allocation, so progressive filling never finds it saturated and it
never freezes a flow: deleting it from the problem leaves the max-min
allocation unchanged. Components are therefore closed only under
resources that can bind (``demand > capacity * (1 - 1e-9)``; ties and
rounding fall on the binding side, which is always exact, just slower):

* a flow that starts with no such resource on its path runs at its
  ``bound`` from the start and never reaches the solver — on a fat
  fabric with a per-flow cap (a 1,150 MiB/s NIC binds only from its
  fifth 270 MiB/s flow) that is nearly all of the open-loop traffic;
* a departing flow dirties only the resources that could bind *before*
  it left (their other members may speed up), so most completions re-arm
  the completion timer and solve nothing;
* the refill walks onward from a flow only through resources that can
  bind, and the solver's state is built from those alone — a slack
  resource's members are not all in the component, so its under-counted
  share must not enter the saturation heap.

With a backbone narrow enough to bind, every non-local flow shares one
binding resource and the component always spans all of them — the
scoped path then degenerates to (and is counted as) a full recompute.

Transfers within one node (client co-located with a provider) bypass
the NICs at a fixed loopback bandwidth.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from ..common.units import GiB
from ..obs import NULL_OBS, Observability
from .core import Environment, Event

#: flows whose remaining volume drops below this many bytes are complete
_EPSILON_BYTES = 1e-3

#: allocator mode names accepted by :class:`Network`
ALLOCATORS = ("incremental", "reference")

#: a resource can bind once its members' summed rate bounds come within
#: this relative margin of its capacity: an exact tie, and any rounding
#: the running sum has picked up, count as binding (the exact side)
_BIND_MARGIN = 1e-9


class _NicResource:
    """One shareable capacity (a NIC direction or the backbone) plus the
    set of flow ids currently crossing it — the membership index that
    scopes incremental reallocation — and ``demand``, the sum of those
    flows' rate bounds: the resource can bind (saturate, and so couple
    its members) only while ``demand > bind_above``."""

    __slots__ = ("key", "capacity", "members", "demand", "bind_above")

    def __init__(self, key: Hashable, capacity: float) -> None:
        self.key = key
        self.capacity = capacity
        self.members: Set[int] = set()
        self.demand = 0.0
        self.bind_above = capacity * (1.0 - _BIND_MARGIN)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_NicResource {self.key} cap={self.capacity:g} n={len(self.members)}>"


@dataclass(slots=True)
class NetNode:
    """One machine's attachment point: egress/ingress NIC capacities."""

    name: str
    up_capacity: float
    down_capacity: float
    #: rack this node is attached to (None on a flat topology)
    rack: Optional[str] = None
    #: lifetime counters, for metrics/debugging
    bytes_sent: float = 0.0
    bytes_received: float = 0.0
    #: the node's shareable NIC directions (set by :meth:`Network.add_node`)
    _up_res: object = field(default=None, repr=False)
    _down_res: object = field(default=None, repr=False)
    #: the rack's uplink/downlink resources (None on a flat topology)
    _rack_up: object = field(default=None, repr=False)
    _rack_down: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.up_capacity <= 0 or self.down_capacity <= 0:
            raise ValueError(f"capacities must be positive on {self.name!r}")


@dataclass(slots=True, eq=False)
class _Flow:
    fid: int
    src: NetNode
    dst: NetNode
    remaining: float
    event: Event
    local: bool
    #: the shareable capacities this flow crosses, computed once at flow
    #: start (src up-NIC, rack hops when the endpoints sit in different
    #: racks, backbone, dst down-NIC); empty for local flows
    resources: Tuple[_NicResource, ...] = ()
    #: the most any allocation can give this flow: the narrowest capacity
    #: on its path or the per-flow cap (incremental allocator, non-local)
    bound: float = 0.0
    rate: float = 0.0
    #: last instant this flow's progress was settled into ``remaining``
    last_update: float = 0.0
    #: bumped whenever the rate changes; stale completion-heap entries
    #: carry an older epoch and are discarded when popped
    epoch: int = 0


class Network:
    """The set of nodes plus the active-flow scheduler."""

    #: bandwidth of a src==dst transfer (memory copy), bytes/s
    LOOPBACK_BANDWIDTH = 4.0 * GiB

    def __init__(
        self,
        env: Environment,
        latency: float = 0.0,
        backbone_bandwidth: float = 0.0,
        flow_rate_cap: float = 0.0,
        allocator: str = "incremental",
        obs: Optional[Observability] = None,
    ) -> None:
        """*backbone_bandwidth* of 0 means a non-blocking fabric;
        *flow_rate_cap* of 0 means flows are limited only by the NICs
        (a positive value models the per-connection ceiling of the
        endpoints' I/O stacks)."""
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if backbone_bandwidth < 0:
            raise ValueError("backbone_bandwidth must be non-negative")
        if flow_rate_cap < 0:
            raise ValueError("flow_rate_cap must be non-negative")
        if allocator not in ALLOCATORS:
            raise ValueError(f"unknown allocator {allocator!r} (use {ALLOCATORS})")
        self.env = env
        self.latency = latency
        self.backbone_bandwidth = backbone_bandwidth
        self.flow_rate_cap = flow_rate_cap
        self.allocator = allocator
        self._incremental = allocator == "incremental"
        self.obs = obs or NULL_OBS
        self.nodes: Dict[str, NetNode] = {}
        self._flows: Dict[int, _Flow] = {}
        self._fid = itertools.count()
        self._backbone: Optional[_NicResource] = (
            _NicResource(("__backbone__", None), backbone_bandwidth)
            if backbone_bandwidth > 0
            else None
        )
        #: rack name -> (uplink resource, downlink resource); empty on a
        #: flat (single-switch) topology
        self._racks: Dict[str, Tuple[_NicResource, _NicResource]] = {}
        #: completion heap: (absolute completion time, fid, epoch)
        self._completions: List[Tuple[float, int, int]] = []
        self._armed_at: Optional[float] = None
        self._timer_generation = 0
        #: reference-mode global settle point
        self._last_update = 0.0
        #: lifetime counter of completed transfers
        self.completed_transfers = 0
        #: resources touched by same-instant flow churn, awaiting the
        #: end-of-timestep coalesced reallocation
        self._dirty: Set[_NicResource] = set()
        #: flow-change events that dirtied a resource since the last
        #: flush (the numerator of the coalescing ratio)
        self._pending_changes = 0
        #: non-local flows in flight (``_flows`` also holds loopback ones)
        self._nonlocal = 0
        #: a local-flow start or stale-heap cleanup needs a re-arm even
        #: when no shared resource went dirty
        self._dirty_arm = False
        #: when True, every coalesced flush point re-runs the reference
        #: allocator over the full flow set and asserts the rates agree
        #: (slow; differential tests only)
        self.check_reference = False
        reg = self.obs.registry
        #: every non-local flow start and finish; ``reallocs`` counts
        #: the solves those needed (none while no resource can bind)
        self._c_changes = reg.counter("sim.net.flow_changes")
        self._c_realloc = reg.counter("sim.net.reallocs")
        #: solves of a non-empty component spanning every non-local flow
        self._c_full = reg.counter("sim.net.realloc_full")
        #: flows solved per solve
        self._h_scope = reg.histogram("sim.net.realloc_scope")
        self._c_flushes = reg.counter("sim.net.flushes")
        self._c_coalesced = reg.counter("sim.net.coalesced_changes")
        if self._incremental:
            env.add_flush_hook(self._flush)

    # -- topology -----------------------------------------------------------

    def add_rack(
        self,
        name: str,
        bandwidth: float | None = None,
        up: float | None = None,
        down: float | None = None,
    ) -> None:
        """Register a rack switch with an uplink/downlink to the core.

        Racks turn the flat single-switch fabric into a two-level tree
        (the standard cluster shape the paper's Grid'5000 Orsay site
        approximates, and the regime where a multi-rack scale experiment
        becomes meaningful): traffic between two nodes of the *same*
        rack crosses only the endpoint NICs, while inter-rack traffic
        additionally shares the source rack's uplink, the optional
        backbone, and the destination rack's downlink. Give either a
        symmetric *bandwidth* or explicit *up*/*down* capacities.
        """
        if name in self._racks:
            raise ValueError(f"duplicate rack {name!r}")
        if bandwidth is not None:
            up = down = bandwidth
        if up is None or down is None:
            raise ValueError("specify bandwidth= or both up= and down=")
        if up <= 0 or down <= 0:
            raise ValueError(f"rack capacities must be positive on {name!r}")
        self._racks[name] = (
            _NicResource((name, "rack-up"), up),
            _NicResource((name, "rack-down"), down),
        )

    def add_node(
        self,
        name: str,
        bandwidth: float | None = None,
        up: float | None = None,
        down: float | None = None,
        rack: Optional[str] = None,
    ) -> NetNode:
        """Register a node. Give either a symmetric *bandwidth* or
        explicit *up*/*down* capacities; *rack* attaches the node to a
        rack previously created with :meth:`add_rack`."""
        if name in self.nodes:
            raise ValueError(f"duplicate node {name!r}")
        if bandwidth is not None:
            up = down = bandwidth
        if up is None or down is None:
            raise ValueError("specify bandwidth= or both up= and down=")
        node = NetNode(name, up, down, rack=rack)
        node._up_res = _NicResource((name, "up"), up)
        node._down_res = _NicResource((name, "down"), down)
        if rack is not None:
            try:
                node._rack_up, node._rack_down = self._racks[rack]
            except KeyError:
                raise ValueError(
                    f"unknown rack {rack!r} (add_rack it first)"
                ) from None
        self.nodes[name] = node
        return node

    # -- transfers ----------------------------------------------------------

    def transfer(self, src: str, dst: str, nbytes: float) -> Event:
        """Move *nbytes* from *src* to *dst*; the event fires on completion.

        Zero-byte transfers still pay one network latency (they model an
        RPC with an empty payload).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        src_node = self.nodes[src]
        dst_node = self.nodes[dst]
        done = Event(self.env)
        if nbytes == 0:
            # latency-only RPC
            self.env.call_in(self.latency, lambda: done.succeed(0.0))
            return done
        if self.latency > 0:
            self.env.call_in(
                self.latency,
                lambda: self._start_flow(src_node, dst_node, nbytes, done),
            )
        else:
            self._start_flow(src_node, dst_node, nbytes, done)
        return done

    def transfer_many(
        self, requests: "Iterable[Tuple[str, str, float]]"
    ) -> List[Event]:
        """Start one transfer per ``(src, dst, nbytes)`` request, batched.

        Semantically identical to calling :meth:`transfer` once per
        request, but the whole fan-out pays a single latency leg and —
        under the incremental allocator — lands in one coalesced
        reallocation instead of one per flow. This is the API for the
        data plane's fan-out patterns: a reducer fetching every map's
        partition, a client shipping a page to its replicas, an HDFS
        write pipeline. Returns the per-transfer completion events in
        request order.
        """
        events: List[Event] = []
        batch: List[Tuple[NetNode, NetNode, float, Event]] = []
        for src, dst, nbytes in requests:
            if nbytes < 0:
                raise ValueError("nbytes must be non-negative")
            src_node = self.nodes[src]
            dst_node = self.nodes[dst]
            done = Event(self.env)
            events.append(done)
            if nbytes == 0:
                # latency-only RPC, same as transfer()
                self.env.call_in(self.latency, lambda d=done: d.succeed(0.0))
            else:
                batch.append((src_node, dst_node, float(nbytes), done))
        if batch:
            if self.latency > 0:
                self.env.call_in(self.latency, lambda: self._start_flows(batch))
            else:
                self._start_flows(batch)
        return events

    def _start_flows(
        self, batch: List[Tuple[NetNode, NetNode, float, Event]]
    ) -> None:
        for src_node, dst_node, nbytes, done in batch:
            self._start_flow(src_node, dst_node, nbytes, done)

    # -- shared internals ----------------------------------------------------

    def _resources_for(
        self, src: NetNode, dst: NetNode
    ) -> Tuple[_NicResource, ...]:
        """The shareable capacities a src→dst flow crosses, in path
        order. On a flat topology: the two endpoint NICs plus the
        optional backbone (byte-identical to the pre-rack model). With
        racks: intra-rack flows stay within the rack switch (endpoint
        NICs only), inter-rack flows add the source rack's uplink, the
        backbone, and the destination rack's downlink."""
        src_rack = src.rack
        dst_rack = dst.rack
        if src_rack == dst_rack:
            # same rack, or a flat topology (both None). Intra-rack
            # traffic turns around at the rack switch and never touches
            # the core; on a flat topology the backbone (when modeled)
            # is the single switch every flow crosses.
            if src_rack is None and self._backbone is not None:
                return (src._up_res, self._backbone, dst._down_res)
            return (src._up_res, dst._down_res)
        # inter-rack (or rack <-> rackless core node): whichever rack
        # hops exist join the path
        res = [src._up_res]
        if src._rack_up is not None:
            res.append(src._rack_up)
        if self._backbone is not None:
            res.append(self._backbone)
        if dst._rack_down is not None:
            res.append(dst._rack_down)
        res.append(dst._down_res)
        return tuple(res)

    def _start_flow(
        self, src: NetNode, dst: NetNode, nbytes: float, done: Event
    ) -> None:
        if self._incremental:
            self._start_flow_incremental(src, dst, nbytes, done)
            return
        self._advance()
        local = src is dst
        flow = _Flow(
            fid=next(self._fid),
            src=src,
            dst=dst,
            remaining=float(nbytes),
            event=done,
            local=local,
            resources=() if local else self._resources_for(src, dst),
            last_update=self.env.now,
        )
        self._flows[flow.fid] = flow
        self._reallocate_and_arm()

    def _local_rate(self) -> float:
        rate = self.LOOPBACK_BANDWIDTH
        if self.flow_rate_cap > 0:
            rate = min(rate, self.flow_rate_cap)
        return rate

    # -- telemetry accessors -------------------------------------------------

    @property
    def active_flows(self) -> int:
        """How many flows are currently in flight."""
        return len(self._flows)

    def aggregate_rate(self) -> float:
        """The summed allocated rate of every in-flight flow (bytes/s) —
        the fabric's instantaneous utilization, sampled by the
        telemetry time series."""
        return sum(flow.rate for flow in self._flows.values())

    # -- incremental allocator ----------------------------------------------

    def _start_flow_incremental(
        self, src: NetNode, dst: NetNode, nbytes: float, done: Event
    ) -> None:
        now = self.env.now
        local = src is dst
        flow = _Flow(
            fid=next(self._fid),
            src=src,
            dst=dst,
            remaining=float(nbytes),
            event=done,
            local=local,
            resources=() if local else self._resources_for(src, dst),
            last_update=now,
        )
        self._flows[flow.fid] = flow
        if local:
            flow.rate = self._local_rate()
            self._push_completion(flow, now)
            self._dirty_arm = True
        else:
            self._c_changes.inc()
            self._nonlocal += 1
            resources = flow.resources
            bound = self.flow_rate_cap or resources[0].capacity
            for res in resources:
                if res.capacity < bound:
                    bound = res.capacity
            flow.bound = bound
            fid = flow.fid
            binding = []
            for res in resources:
                res.members.add(fid)
                res.demand += bound
                if res.demand > res.bind_above:
                    binding.append(res)
            if binding:
                # the members of those resources (this flow among them)
                # are refilled at the end of the timestep
                self._dirty.update(binding)
                self._pending_changes += 1
            else:
                # every link on the path has room for all its members
                # could ever carry: nobody's rate depends on this flow
                flow.rate = bound
                self._push_completion(flow, now)
                self._dirty_arm = True
        self.env.request_flush()

    def _leave(self, flow: _Flow) -> List[_NicResource]:
        """Take a finished non-local flow off its resources; returns the
        ones that could bind *before* it left — their remaining members
        may speed up, whether or not the resource can still bind."""
        fid = flow.fid
        bound = flow.bound
        could_bind = []
        for res in flow.resources:
            if res.demand > res.bind_above:
                could_bind.append(res)
            members = res.members
            members.discard(fid)
            # exactly zero on an idle resource, so the sum cannot drift
            res.demand = res.demand - bound if members else 0.0
        return could_bind

    def _flush(self) -> None:
        """End-of-timestep hook: one coalesced reallocation for all the
        flow churn of the current instant (exact — rates are only
        observable across time advancement)."""
        if self._dirty:
            seeds = list(self._dirty)
            self._dirty.clear()
            self._c_flushes.inc()
            self._c_coalesced.inc(float(self._pending_changes))
            self._pending_changes = 0
            self._dirty_arm = False
            self._realloc(seeds)
        elif self._dirty_arm:
            # flow churn that coupled nobody: rates stand, re-arm only
            self._dirty_arm = False
            self._arm()
        else:
            return
        if self.check_reference:
            self._assert_matches_reference()

    def _settle(self, flow: _Flow, now: float) -> None:
        """Fold the fluid progress since the flow's last rate change into
        its ``remaining`` and the endpoints' byte counters."""
        dt = now - flow.last_update
        if dt > 0.0 and flow.rate > 0.0:
            moved = flow.rate * dt
            flow.remaining -= moved
            flow.src.bytes_sent += moved
            flow.dst.bytes_received += moved
        flow.last_update = now

    def _push_completion(self, flow: _Flow, now: float) -> None:
        if flow.rate > 0.0:
            heapq.heappush(
                self._completions,
                (now + flow.remaining / flow.rate, flow.fid, flow.epoch),
            )

    def _component(self, seeds: List[_NicResource]) -> List[_Flow]:
        """The members of *seeds* plus every flow transitively sharing a
        resource that can bind with one of them."""
        comp: List[_Flow] = []
        seen_res: Set[_NicResource] = set(seeds)
        seen_fids: Set[int] = set()
        stack = list(seeds)
        flows = self._flows
        while stack:
            res = stack.pop()
            for fid in res.members:
                if fid in seen_fids:
                    continue
                seen_fids.add(fid)
                flow = flows[fid]
                comp.append(flow)
                for other in flow.resources:
                    if other.demand > other.bind_above and other not in seen_res:
                        seen_res.add(other)
                        stack.append(other)
        return comp

    def _realloc(self, seeds: List[_NicResource]) -> None:
        """Refill the component reachable from *seeds* and re-arm."""
        comp = self._component(seeds)
        self._c_realloc.inc()
        self._h_scope.observe(float(len(comp)))
        if comp and len(comp) == self._nonlocal:
            self._c_full.inc()
        if comp:
            rates = self._fill(comp)
            now = self.env.now
            flows = self._flows
            for fid, rate in rates.items():
                flow = flows[fid]
                if rate != flow.rate:
                    self._settle(flow, now)
                    flow.rate = rate
                    flow.epoch += 1
                    self._push_completion(flow, now)
        self._arm()

    def _fill(self, comp: List[_Flow]) -> Dict[int, float]:
        """Water-filling max-min fair allocation restricted to one
        connected component; returns fid → rate.

        Progressive filling raises every unfrozen flow uniformly, so at
        any moment all unfrozen flows share one common rate *level*.
        Resource ``r`` with residual capacity ``c_r`` and ``n_r``
        unfrozen members therefore saturates at ``level + c_r / n_r``
        — its position in the sorted residual demand. A lazy heap of
        these projected saturation levels visits bottleneck resources in
        order, freezing each bottleneck's members at its level: O((F +
        R) log R) per component instead of the iterative uniform
        refill's O(F · bottlenecks). Same max-min semantics as
        :meth:`_compute_rates_reference` (differentially tested to 1e-6
        by ``check_reference``).

        Only resources that can bind take part: every one of those the
        component touches has all its members in *comp*, while a slack
        one may not (the walk does not cross it) and cannot saturate
        anyway. A flow crossing none of them runs at its ``bound``.
        """
        # fast path 0: a single-flow component (a lone transfer between
        # otherwise-idle NICs): no solver state, just the flow's bound
        if len(comp) == 1:
            flow = comp[0]
            return {flow.fid: flow.bound}

        cap_limit = self.flow_rate_cap
        rates: Dict[int, float] = {}
        #: the flows that cross a resource that can bind
        solve: List[_Flow] = []
        # per-resource solver state, settled lazily at `res_level[i]`:
        # residual capacity, unfrozen member count, member flows, epoch
        # (bumped on every count change to invalidate older heap entries)
        res_index: Dict[_NicResource, int] = {}
        res_cap: List[float] = []
        res_count: List[int] = []
        res_level: List[float] = []
        res_members: List[List[_Flow]] = []
        res_epoch: List[int] = []

        for flow in comp:
            coupled = False
            for res in flow.resources:
                if res.demand <= res.bind_above:
                    continue
                coupled = True
                i = res_index.get(res)
                if i is None:
                    i = res_index[res] = len(res_cap)
                    res_cap.append(res.capacity)
                    res_count.append(0)
                    res_level.append(0.0)
                    res_members.append([])
                    res_epoch.append(0)
                res_count[i] += 1
                res_members[i].append(flow)
            if coupled:
                solve.append(flow)
            else:
                rates[flow.fid] = flow.bound
        if not solve:
            return rates

        n_res = len(res_cap)
        n_total = len(solve)
        first_share = min(res_cap[i] / res_count[i] for i in range(n_res))
        # fast path 1: the per-flow cap binds before any resource
        # saturates — every coupled flow runs at the cap
        if cap_limit > 0 and cap_limit <= first_share:
            for flow in solve:
                rates[flow.fid] = cap_limit
            return rates
        # fast path 2: the first bottleneck spans every coupled flow
        # (e.g. they all cross the backbone) — everything freezes at
        # one level, no heap needed
        for i in range(n_res):
            if (
                res_count[i] == n_total
                and res_cap[i] / res_count[i] <= first_share
            ):
                for flow in solve:
                    rates[flow.fid] = first_share
                return rates

        heap: List[Tuple[float, int, int]] = [
            (res_cap[i] / res_count[i], i, 0) for i in range(n_res)
        ]
        heapq.heapify(heap)
        n_frozen = 0
        while n_frozen < n_total and heap:
            level, i, epoch = heapq.heappop(heap)
            if epoch != res_epoch[i] or res_count[i] == 0:
                continue
            if cap_limit > 0 and cap_limit <= level:
                # no further resource saturates before the per-flow cap:
                # every still-unfrozen flow freezes at the cap, done
                for flow in solve:
                    if flow.fid not in rates:
                        rates[flow.fid] = cap_limit
                return rates
            # resource i saturates: freeze its unfrozen members at `level`
            touched: List[int] = []
            for flow in res_members[i]:
                if flow.fid in rates:
                    continue
                rates[flow.fid] = level
                n_frozen += 1
                for res in flow.resources:
                    j = res_index.get(res)
                    if j is None:
                        continue  # slack: not part of the solve
                    if res_level[j] < level:
                        # settle consumption up to the new common level
                        res_cap[j] -= res_count[j] * (level - res_level[j])
                        res_level[j] = level
                    res_count[j] -= 1
                    res_epoch[j] += 1
                    touched.append(j)
            for j in touched:
                if j != i and res_count[j] > 0:
                    proj = level + max(res_cap[j], 0.0) / res_count[j]
                    heapq.heappush(heap, (proj, j, res_epoch[j]))
        if n_frozen < n_total:  # pragma: no cover - defensive against fp drift
            fallback = cap_limit if cap_limit > 0 else 0.0
            for flow in solve:
                rates.setdefault(flow.fid, fallback)
        return rates

    def _arm(self) -> None:
        """Point the single pending timer at the earliest live completion."""
        heap = self._completions
        flows = self._flows
        while heap:
            _t, fid, epoch = heap[0]
            flow = flows.get(fid)
            if flow is None or flow.epoch != epoch:
                heapq.heappop(heap)
                continue
            break
        if not heap:
            self._armed_at = None
            return
        t = heap[0][0]
        if self._armed_at is not None and self._armed_at <= t:
            return  # the pending timer fires first anyway
        self._timer_generation += 1
        generation = self._timer_generation
        self._armed_at = t
        self.env.call_at(t, lambda: self._on_completion_timer(generation))

    def _on_completion_timer(self, generation: int) -> None:
        if generation != self._timer_generation:
            return  # superseded by a newer arm
        self._armed_at = None
        now = self.env.now
        heap = self._completions
        flows = self._flows
        finished: List[_Flow] = []
        seeds: List[_NicResource] = []
        while heap:
            t, fid, epoch = heap[0]
            flow = flows.get(fid)
            if flow is None or flow.epoch != epoch:
                heapq.heappop(heap)
                continue
            if t > now:
                break
            heapq.heappop(heap)
            self._settle(flow, now)
            if (
                flow.remaining <= _EPSILON_BYTES
                # sub-resolution residue: the clock cannot advance by the
                # time the residue needs, so the flow is done now
                or now + flow.remaining / flow.rate <= now
            ):
                del self._flows[flow.fid]
                finished.append(flow)
                if not flow.local:
                    self._c_changes.inc()
                    self._nonlocal -= 1
                    could_bind = self._leave(flow)
                    if could_bind:
                        seeds.extend(could_bind)
                        self._pending_changes += 1
            else:  # pragma: no cover - fp drift between heap entry and settle
                flow.epoch += 1
                self._push_completion(flow, now)
        # defer the refill to the end-of-timestep flush: completions that
        # land at the same instant (wave barriers, symmetric fan-outs)
        # coalesce into one reallocation, and flows started by processes
        # the finished events resume join the same flush
        if seeds:
            self._dirty.update(seeds)
        else:
            self._dirty_arm = True
        self.env.request_flush()
        for flow in finished:
            self.completed_transfers += 1
            flow.event.succeed(now)

    def _assert_matches_reference(self) -> None:
        """Differential oracle: global reference refill must agree with
        the incrementally maintained rates (slow; tests only)."""
        actual = {fid: f.rate for fid, f in self._flows.items()}
        self._compute_rates_reference()
        mismatches = []
        for fid, flow in self._flows.items():
            expect = flow.rate
            got = actual[fid]
            flow.rate = got  # restore the incremental state
            tol = 1e-6 * max(1.0, abs(expect))
            if abs(got - expect) > tol:
                mismatches.append(
                    f"flow {fid} {flow.src.name}->{flow.dst.name}: "
                    f"incremental {got!r} vs reference {expect!r}"
                )
        if mismatches:
            raise AssertionError(
                "incremental allocator diverged from reference:\n"
                + "\n".join(mismatches)
            )

    # -- reference allocator (original full recompute) ------------------------

    def _advance(self) -> None:
        """Account fluid progress since the last rate change."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._flows:
            return
        finished: List[_Flow] = []
        for flow in self._flows.values():
            moved = flow.rate * dt
            flow.remaining -= moved
            flow.src.bytes_sent += moved
            flow.dst.bytes_received += moved
            flow.last_update = now
            if flow.remaining <= _EPSILON_BYTES:
                finished.append(flow)
        for flow in finished:
            del self._flows[flow.fid]
            self.completed_transfers += 1
            flow.event.succeed(self.env.now)

    def _reallocate_and_arm(self) -> None:
        """Recompute max-min fair rates and arm the next-completion timer."""
        self._compute_rates_reference()
        self._c_realloc.inc()
        self._c_full.inc()
        self._h_scope.observe(float(len(self._flows)))
        self._timer_generation += 1
        generation = self._timer_generation
        horizon = min(
            (f.remaining / f.rate for f in self._flows.values() if f.rate > 0),
            default=None,
        )
        if horizon is None:
            return
        timer = self.env.timeout(horizon)
        timer.callbacks.append(lambda _ev: self._on_timer(generation))

    def _on_timer(self, generation: int) -> None:
        if generation != self._timer_generation:
            return  # superseded by a newer rate change
        self._advance()
        self._reallocate_and_arm()

    def _compute_rates_reference(self) -> None:
        """Progressive-filling max-min fair allocation over NIC capacities,
        with an optional per-flow rate cap — the original full recompute.

        Every non-local flow consumes each shareable capacity on its
        path — ``flow.resources``: endpoint NICs, rack uplinks/downlinks
        when the endpoints sit in different racks, and (when configured)
        the shared backbone; a flow additionally freezes once it reaches
        the per-flow cap. Local flows run at the loopback bandwidth.

        Sets ``flow.rate`` on every active flow. The incremental
        allocator is the scoped equivalent and is differentially tested
        against this implementation.
        """
        unfrozen: Set[int] = set()
        for flow in self._flows.values():
            if flow.local:
                flow.rate = self.LOOPBACK_BANDWIDTH
                if self.flow_rate_cap > 0:
                    flow.rate = min(flow.rate, self.flow_rate_cap)
            else:
                flow.rate = 0.0
                unfrozen.add(flow.fid)
        if not unfrozen:
            return

        # path resources keyed by their stable (name, direction) keys so
        # this recompute shares no mutable solver state with the
        # incremental allocator it checks
        cap: Dict[Hashable, float] = {}
        members: Dict[Hashable, Set[int]] = {}

        for fid in unfrozen:
            flow = self._flows[fid]
            for res in flow.resources:
                key = res.key
                if key not in cap:
                    cap[key] = res.capacity
                    members[key] = set()
                members[key].add(fid)

        def flow_keys(flow: _Flow):
            for res in flow.resources:
                yield res.key

        while unfrozen:
            # fair-share increment is set by the most contended resource …
            share = min(cap[key] / len(m) for key, m in members.items() if m)
            # … unless some flow hits its cap first
            headroom = share
            if self.flow_rate_cap > 0:
                headroom = min(
                    self.flow_rate_cap - self._flows[fid].rate for fid in unfrozen
                )
                headroom = min(share, max(headroom, 0.0))
            for fid in unfrozen:
                flow = self._flows[fid]
                flow.rate += headroom
                for key in flow_keys(flow):
                    cap[key] -= headroom
            frozen_now: Set[int] = set()
            if headroom >= share * (1 - 1e-12):
                # a resource saturated: freeze every flow through it
                for key, m in members.items():
                    if m and cap[key] / len(m) <= share * 1e-9:
                        frozen_now |= m
            if self.flow_rate_cap > 0:
                frozen_now |= {
                    fid
                    for fid in unfrozen
                    if self._flows[fid].rate >= self.flow_rate_cap * (1 - 1e-12)
                }
            if not frozen_now:  # pragma: no cover - defensive against fp drift
                frozen_now = set(unfrozen)
            for fid in frozen_now:
                flow = self._flows.get(fid)
                if flow is None:
                    continue
                for key in flow_keys(flow):
                    m = members.get(key)
                    if m is not None:
                        m.discard(fid)
            unfrozen -= frozen_now

    # -- introspection -------------------------------------------------------

    def active_flows_between(self, src: str, dst: str) -> int:
        """Number of in-flight transfers from *src* to *dst*."""
        return sum(
            1 for f in self._flows.values() if f.src.name == src and f.dst.name == dst
        )

    def current_rate(self, src: str, dst: str) -> float:
        """Aggregate current rate of all flows from *src* to *dst* (B/s)."""
        if self._incremental and (self._dirty or self._dirty_arm):
            # same-instant churn awaiting the end-of-timestep flush:
            # force it so observed rates are current (the kernel's later
            # flush then finds nothing dirty and is a no-op)
            self._flush()
        return sum(
            f.rate
            for f in self._flows.values()
            if f.src.name == src and f.dst.name == dst
        )
