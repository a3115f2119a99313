"""The version manager as a DES service: the core on the simulation clock.

:class:`SimVMService` is what the simulated deployment binds to the
engine's ``vm`` control endpoint. Charged methods run inside the VM's
one-slot critical section; ``metadata_turn`` and ``publish_wait`` are
the uncharged conditions the engine waits on. All protocol state —
append-ticket leases included — lives in
:class:`~repro.blobseer.version_manager.VersionManagerCore`; this
adapter only passes ``env.now`` in, turns the core's callbacks into
kernel events, and schedules one expiry check per lease the core starts.
"""

from __future__ import annotations

from ..sim.core import Environment, Event
from .version_manager import Ticket, VersionManagerCore


class SimVMService:
    """DES-side version-manager service endpoint."""

    def __init__(self, env: Environment, lease_s: float, obs) -> None:
        self.env = env
        def check_leases() -> None:
            # DES events can't be unscheduled: a check whose version
            # committed in time finds nothing overdue and does nothing
            core.expire(env.now)

        self.core = core = VersionManagerCore(
            obs,
            lease_s=lease_s,
            on_lease_start=lambda deadline: env.call_at(deadline, check_leases),
        )
        # untimed transitions need no adapting
        self.commit_ready = core.commit_ready
        self.resolve = core.resolve

    # -- endpoint methods (charged) ------------------------------------------

    def assign_append(self, blob_id: int, nbytes: int) -> Ticket:
        return self.core.assign_append(blob_id, nbytes, self.env.now)

    def assign_write(self, blob_id: int, offset: int, nbytes: int) -> Ticket:
        return self.core.assign_write(blob_id, offset, nbytes, self.env.now)

    def commit(self, blob_id: int, version: int, root) -> None:
        self.core.commit(blob_id, version, root, self.env.now)

    def publish_batch(self, blob_id: int, versions, root, tree_size: int) -> None:
        self.core.publish_batch(blob_id, versions, root, tree_size, self.env.now)

    # -- uncharged waits -----------------------------------------------------

    def metadata_turn(self, blob_id: int, version: int) -> Event:
        """Resolves with the predecessor's ``(root, capacity)`` when
        *version* heads the commit queue."""
        ev = Event(self.env)
        self.core.when_turn(blob_id, version, ev.succeed)
        return ev

    def publish_wait(self, blob_id: int, version: int) -> Event:
        """Resolves with ``("published",)`` once a leader publishes this
        version, or with a ``("lead", ...)`` promotion."""
        ev = Event(self.env)
        self.core.when_published(blob_id, version, ev.succeed)
        return ev
