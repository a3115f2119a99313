"""Page and fragment model.

A BLOB is split into even-sized *pages* — the data-management unit of
BlobSeer. What a writer ships to a data provider is an immutable
*stored object* identified by an opaque, position-independent
:class:`PageId`: an appender can send its bytes to providers before the
version manager has even decided at which offset the append will land.

Because appends need not be page-aligned, one page of the BLOB's
address space may be assembled from pieces written by different
versions. A segment-tree leaf therefore records a list of
:class:`Fragment` s — byte ranges of the page, each pointing into one
stored object. Updates never rewrite old data: an append that starts
mid-page simply *overlays* a new fragment over the previous version's
fragment list (metadata-only), which is what lets concurrent appenders
proceed without read-modify-write cycles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Tuple

#: process-wide page id counter (next() on itertools.count is atomic
#: under the GIL, so no lock is needed for thread safety)
_page_counter = itertools.count()


def fresh_page_id(blob_id: int, writer: str) -> "PageId":
    """Mint a unique page id, tagged with its BLOB and writer for debugging."""
    return PageId(blob_id=blob_id, writer=writer, seq=next(_page_counter))


@dataclass(frozen=True, slots=True)
class PageId:
    """Globally unique, position-independent identity of one stored object."""

    blob_id: int
    writer: str
    seq: int

    def key(self) -> bytes:
        """Stable byte key for persistence layers and DHT placement."""
        return f"page/{self.blob_id}/{self.writer}/{self.seq}".encode()


@dataclass(frozen=True, slots=True)
class Fragment:
    """One contiguous piece of a page, backed by part of a stored object.

    ``[start, start+length)`` is the range *within the page*;
    ``data_offset`` is where those bytes begin *within the stored
    object*; ``providers`` lists every replica holder, primary first.
    """

    start: int
    length: int
    page_id: PageId
    data_offset: int
    providers: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("negative fragment start")
        if self.length <= 0:
            raise ValueError("fragment length must be positive")
        if self.data_offset < 0:
            raise ValueError("negative data offset")
        if not self.providers:
            raise ValueError("fragment must have at least one provider")

    @property
    def end(self) -> int:
        return self.start + self.length

    @property
    def primary(self) -> str:
        """The first-choice provider for reads."""
        return self.providers[0]

    def clip(self, lo: int, hi: int) -> "Fragment | None":
        """The sub-fragment covering ``[lo, hi)`` of the page, or None."""
        new_lo = max(self.start, lo)
        new_hi = min(self.end, hi)
        if new_lo >= new_hi:
            return None
        return Fragment(
            start=new_lo,
            length=new_hi - new_lo,
            page_id=self.page_id,
            data_offset=self.data_offset + (new_lo - self.start),
            providers=self.providers,
        )


#: a leaf's payload: non-overlapping fragments sorted by start
PageFragments = Tuple[Fragment, ...]


def overlay(previous: Iterable[Fragment], new: Fragment) -> PageFragments:
    """The previous fragment list with *new* written over it.

    Pure metadata: pieces of older fragments outside the new range
    survive (clipped); the region ``[new.start, new.end)`` now belongs
    to *new*. The result stays sorted and non-overlapping.
    """
    ns, ne = new.start, new.end
    if type(previous) is tuple and previous and previous[-1].end <= ns:
        # the dominant pattern, an append landing past every older
        # fragment: nothing to clip, and nothing to walk
        return previous + (new,)
    # The input is sorted and non-overlapping, so starts AND ends are
    # strictly increasing: fragments wholly left of the new range come
    # first, then (at most a few) overlapping ones, then wholly-right
    # ones. The outside fragments survive by reference — only the
    # overlap region needs clipping.
    out: List[Fragment] = []
    tail: List[Fragment] = []
    for frag in previous:
        if frag.end <= ns:
            out.append(frag)
        elif frag.start >= ne:
            tail.append(frag)
        else:
            left = frag.clip(0, ns)
            if left is not None:
                out.append(left)
            right = frag.clip(ne, frag.end)
            if right is not None:
                tail.append(right)
    out.append(new)
    out.extend(tail)
    for a, b in zip(out, out[1:]):
        if a.end > b.start:  # pragma: no cover - invariant guard
            raise AssertionError(f"overlapping fragments {a} / {b}")
    return tuple(out)
