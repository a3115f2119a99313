"""The max-min oracle the flow network is checked against (DESIGN.md §5):
the from-scratch progressive-filling recompute, kept as test code.

* :func:`maxmin_rates` — a pure function from flow paths (resource
  keys), capacities, the per-flow cap and the loopback rate to every
  flow's max-min fair rate;
* :func:`install` — check a network's rates against it at every
  end-of-timestep flush, including the ones that solve nothing;
* :func:`replay` — a fluid run under the oracle's rates with no kernel:
  the completion times a workload should have on a network's topology;
* :func:`current_rate` / :func:`active_flows_between` — what the tests
  read of a network's flow table.
"""

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

from repro.sim.network import _EPSILON_BYTES, Network

#: how far a rate may stray from the oracle's, relative (absolute
#: below 1 B/s)
RATE_REL = 1e-6


def maxmin_rates(
    paths: Mapping[Hashable, Sequence[Hashable]],
    capacity: Mapping[Hashable, float],
    cap: float,
    loopback: float,
) -> Dict[Hashable, float]:
    """Progressive-filling max-min fair allocation; returns flow → rate.

    *paths* maps each flow to the resource keys it crosses (empty: a
    loopback flow, which runs at *loopback*); *capacity* maps each key
    to bytes/s; *cap* is the per-flow ceiling (0: none). Each round
    raises every unfrozen flow by the fair share of the most contended
    resource — less if some flow reaches the cap first — then freezes
    the flows through a saturated resource and the flows at the cap.
    """
    local = min(loopback, cap) if cap > 0 else loopback
    rates: Dict[Hashable, float] = {}
    unfrozen = set()
    residual: Dict[Hashable, float] = {}
    members: Dict[Hashable, set] = {}
    for fid, path in paths.items():
        if not path:
            rates[fid] = local
            continue
        rates[fid] = 0.0
        unfrozen.add(fid)
        for key in path:
            if key not in residual:
                residual[key] = capacity[key]
                members[key] = set()
            members[key].add(fid)

    while unfrozen:
        share = min(residual[key] / len(m) for key, m in members.items() if m)
        headroom = share
        if cap > 0:
            headroom = min(share, max(min(cap - rates[f] for f in unfrozen), 0.0))
        for fid in unfrozen:
            rates[fid] += headroom
            for key in paths[fid]:
                residual[key] -= headroom
        frozen = set()
        if headroom >= share * (1 - 1e-12):
            # a resource saturated: freeze every flow through it
            for key, m in members.items():
                if m and residual[key] / len(m) <= share * 1e-9:
                    frozen |= m
        if cap > 0:
            frozen |= {f for f in unfrozen if rates[f] >= cap * (1 - 1e-12)}
        if not frozen:  # fp drift: nothing can rise any further
            frozen = set(unfrozen)
        for fid in frozen:
            for key in paths[fid]:
                members[key].discard(fid)
        unfrozen -= frozen
    return rates


def _oracle(net: Network, paths: Dict[Hashable, Tuple]) -> Dict[Hashable, float]:
    """:func:`maxmin_rates` of *paths* (flow → ``_NicResource`` tuple)
    on *net*'s capacities, cap and loopback rate."""
    return maxmin_rates(
        {fid: tuple(res.key for res in path) for fid, path in paths.items()},
        {res.key: res.capacity for path in paths.values() for res in path},
        net.flow_rate_cap,
        net.LOOPBACK_BANDWIDTH,
    )


@dataclass
class Checked:
    """What :func:`install` has checked so far."""

    flushes: int = 0
    flows: int = 0


def install(net: Network) -> Checked:
    """Assert, at every end-of-timestep flush of *net*'s kernel (after
    the network's own), that each flow's rate is the oracle's to
    :data:`RATE_REL`."""

    def check() -> None:
        flows = net._flows
        want = _oracle(net, {fid: f.resources for fid, f in flows.items()})
        bad = [
            f"flow {fid} {flow.src.name}->{flow.dst.name}: "
            f"network {flow.rate!r} vs oracle {want[fid]!r}"
            for fid, flow in flows.items()
            if abs(flow.rate - want[fid]) > RATE_REL * max(1.0, abs(want[fid]))
        ]
        if bad:
            raise AssertionError(
                "the network's rates diverged from max-min:\n" + "\n".join(bad)
            )
        checked.flushes += 1
        checked.flows += len(flows)

    checked = Checked()
    net.env.add_flush_hook(check)
    return checked


def replay(
    net: Network, requests: Sequence[Tuple[float, str, str, float]]
) -> List[float]:
    """The completion instant of each ``(t, src, dst, nbytes)`` request
    on *net*'s topology, from a fluid run under the oracle's rates; the
    network's kernel and flow table are not touched.

    A request starts its flow one latency after *t* (a zero-byte one
    completes then). The run moves from event to event — a flow start
    or the earliest completion under the current rates — settles every
    flow, finishes those with under ``_EPSILON_BYTES`` left (or a
    residue the clock cannot resolve), and recomputes the rates.
    """
    done: List[float] = [0.0] * len(requests)
    starts = []
    for i, (t, src, dst, nbytes) in enumerate(requests):
        begin = t + net.latency
        if nbytes == 0:
            done[i] = begin
            continue
        s, d = net.nodes[src], net.nodes[dst]
        starts.append((begin, i, () if s is d else net._resources_for(s, d)))
    starts.sort(key=lambda start: start[:2])
    sizes = [float(request[3]) for request in requests]

    now = 0.0
    remaining: Dict[int, float] = {}
    paths: Dict[int, Tuple] = {}
    rates: Dict[int, float] = {}
    k = 0
    while k < len(starts) or remaining:
        t = now + min(
            (remaining[i] / rates[i] for i in remaining if rates[i] > 0.0),
            default=float("inf"),
        )
        starting = k < len(starts) and starts[k][0] <= t
        if starting:
            t = starts[k][0]
        if t > now or not starting:  # a completion is due by t
            for i in remaining:
                remaining[i] -= rates[i] * (t - now)
            now = t
            for i in [
                i
                for i, left in remaining.items()
                if left <= _EPSILON_BYTES
                or (rates[i] > 0.0 and now + left / rates[i] <= now)
            ]:
                done[i] = now
                del remaining[i], paths[i]
        while k < len(starts) and starts[k][0] <= now:
            _begin, i, path = starts[k]
            remaining[i] = sizes[i]
            paths[i] = path
            k += 1
        rates = _oracle(net, paths)
    return done


def _between(net: Network, src: str, dst: str):
    return [
        f for f in net._flows.values() if f.src.name == src and f.dst.name == dst
    ]


def active_flows_between(net: Network, src: str, dst: str) -> int:
    """Number of in-flight transfers from *src* to *dst*."""
    return len(_between(net, src, dst))


def current_rate(net: Network, src: str, dst: str) -> float:
    """Aggregate current rate of all flows from *src* to *dst* (B/s).
    Same-instant churn awaiting the end-of-timestep flush is flushed
    first, so the rates read are current (the kernel's own flush then
    finds nothing pending)."""
    if net._dirty or net._dirty_arm:
        net._flush()
    return sum(f.rate for f in _between(net, src, dst))
