"""Flow-level network model with max-min fair bandwidth sharing.

Each node owns an egress ("up") and ingress ("down") NIC capacity; an
optional backbone capacity models a blocking fabric. A *transfer* is a
fluid flow from one node to another: concurrent flows share the NICs
according to the classic progressive-filling (max-min fair) allocation,
which is the standard fluid approximation of many TCP streams over a
switched Ethernet — the regime of the paper's Grid'5000 Orsay cluster.

A run is a sequence of fluid intervals with piecewise-constant rates,
kept by one incremental allocator. Flow arrivals and completions mark
the resources they cross *dirty* and defer the refill to the kernel's
end-of-timestep flush (:meth:`Environment.add_flush_hook`): all
same-instant churn — a reducer wave starting ``n_maps`` fetches, a
barrier of symmetric flows finishing together — costs **one**
reallocation instead of one per flow. The deferral is exact, not an
approximation: rates are only observable across time advancement, and
the flush runs after every same-instant event but before the clock
moves. At the flush, only the *connected component* of flows that
(transitively) share a NIC/backbone resource with a dirty resource is
refilled; a per-resource membership index keeps disjoint traffic
untouched. The refill itself is a water-filling max-min solve — a
saturation-level heap finds successive bottleneck resources in
O((F+R) log R) rather than iterating uniform increments over the whole
component. Progress is accounted lazily per flow — ``(last_update,
rate)`` — and completions live in a heap, so an event never sweeps the
whole flow table. This is what lets
the kernel scale to thousands of concurrent flows (the regime of the
paper's 246-client sweeps and the data join's ``n_reducers × n_maps``
shuffle).

The from-scratch progressive-filling recompute this allocator must
agree with is test code: ``tests/maxmin.py`` holds it as a pure
function, checks every flush of a network against it, and replays a
workload under it to compare completion times.

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
    #: on its path or the per-flow cap (non-local flows)
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
        self.env = env
        self.latency = latency
        self.backbone_bandwidth = backbone_bandwidth
        self.flow_rate_cap = flow_rate_cap
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
        return self.transfer_many(((src, dst, nbytes),))[0]

    def transfer_many(
        self, requests: "Iterable[Tuple[str, str, float]]"
    ) -> List[Event]:
        """Start one transfer per ``(src, dst, nbytes)`` request, batched.

        Semantically identical to calling :meth:`transfer` once per
        request, but the whole fan-out pays a single latency leg. This
        is the API for the data plane's fan-out patterns: a reducer
        fetching every map's partition, a client shipping a page to its
        replicas, an HDFS write pipeline. Returns the per-transfer
        completion events in request order.
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
                # latency-only RPC
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

    # -- paths ----------------------------------------------------------------

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

    # -- allocator ------------------------------------------------------------

    def _start_flow(
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

    def _settle(self, flow: _Flow, now: float) -> None:
        """Fold the fluid progress since the flow's last rate change into
        its ``remaining``."""
        dt = now - flow.last_update
        if dt > 0.0 and flow.rate > 0.0:
            flow.remaining -= flow.rate * dt
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
        refill's O(F · bottlenecks). Same max-min semantics as the
        progressive-filling oracle in ``tests/maxmin.py``, which checks
        every flush to 1e-6.

        Only resources that can bind take part: every one of those the
        component touches has all its members in *comp*, while a slack
        one may not (the walk does not cross it) and cannot saturate
        anyway. A flow crossing none of them runs at its ``bound``.
        """
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

        n_total = len(solve)
        heap: List[Tuple[float, int, int]] = [
            (res_cap[i] / res_count[i], i, 0) for i in range(len(res_cap))
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
