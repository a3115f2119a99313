"""BlobSeer — versioning-based, concurrency-optimized BLOB management.

A Python reimplementation of the BlobSeer data-management service the
paper builds on: BLOBs split into pages stored on *providers*, placement
by a load-balancing *provider manager*, per-version distributed segment
trees held by *metadata providers*, and a centralized *version manager*
that serializes only version assignment and in-order publication.

Two runtimes share these algorithms:

* the threaded runtime (:class:`BlobSeerService` / :class:`BlobClient`)
  stores real bytes and is what tests, examples and applications use;
* the simulated runtime (:mod:`repro.blobseer.simulated`) runs the same
  protocol on the :mod:`repro.sim` cluster model to reproduce the
  paper's Grid'5000-scale measurements.
"""

from .pages import Fragment, PageFragments, PageId, fresh_page_id, overlay
from .provider import Provider
from .provider_manager import ProviderManager
from .backends import InMemoryPageStore, LogStructuredPageStore, PageStore
from .version_manager import (
    BlobState,
    ThreadedVersionManager,
    Ticket,
    VersionManagerCore,
    VersionRecord,
)
from .client import BlobClient, BlobSeerService
from .pruning import PruneReport, prune_blob

__all__ = [
    "Fragment",
    "PageFragments",
    "PageId",
    "fresh_page_id",
    "overlay",
    "Provider",
    "ProviderManager",
    "InMemoryPageStore",
    "LogStructuredPageStore",
    "PageStore",
    "BlobState",
    "ThreadedVersionManager",
    "Ticket",
    "VersionManagerCore",
    "VersionRecord",
    "BlobClient",
    "BlobSeerService",
    "PruneReport",
    "prune_blob",
]
