"""Unit + property tests for the page/fragment model."""

import pytest
from hypothesis import given, strategies as st

from repro.blobseer.pages import (
    Fragment,
    fragments_cover,
    fragments_fill,
    fresh_page_id,
    overlay,
)


def frag(start, length, tag="w", data_offset=0):
    return Fragment(
        start=start,
        length=length,
        page_id=fresh_page_id(1, tag),
        data_offset=data_offset,
        providers=("p0",),
    )


class TestPageId:
    def test_unique(self):
        ids = {fresh_page_id(1, "w") for _ in range(100)}
        assert len(ids) == 100

    def test_key_stable(self):
        pid = fresh_page_id(3, "writer")
        assert pid.key() == pid.key()
        assert pid.key().startswith(b"page/3/writer/")


class TestFragment:
    def test_validation(self):
        with pytest.raises(ValueError):
            frag(-1, 5)
        with pytest.raises(ValueError):
            frag(0, 0)
        with pytest.raises(ValueError):
            Fragment(0, 1, fresh_page_id(1, "w"), -1, ("p",))
        with pytest.raises(ValueError):
            Fragment(0, 1, fresh_page_id(1, "w"), 0, ())

    def test_end_and_primary(self):
        f = Fragment(5, 10, fresh_page_id(1, "w"), 0, ("a", "b"))
        assert f.end == 15
        assert f.primary == "a"

    def test_clip_inside(self):
        f = frag(10, 10, data_offset=100)
        c = f.clip(12, 18)
        assert (c.start, c.length, c.data_offset) == (12, 6, 102)

    def test_clip_disjoint(self):
        assert frag(10, 10).clip(0, 10) is None
        assert frag(10, 10).clip(20, 30) is None

    def test_clip_identity(self):
        f = frag(3, 7)
        assert f.clip(0, 100) == f


class TestOverlay:
    def test_overlay_empty(self):
        f = frag(0, 10)
        assert overlay((), f) == (f,)

    def test_overlay_replaces_covered(self):
        old = frag(0, 10, "old")
        new = frag(0, 10, "new")
        assert overlay((old,), new) == (new,)

    def test_overlay_keeps_head(self):
        old = frag(0, 10, "old")
        new = frag(6, 10, "new")
        result = overlay((old,), new)
        assert [(f.start, f.end) for f in result] == [(0, 6), (6, 16)]
        assert result[0].page_id == old.page_id
        assert result[1].page_id == new.page_id

    def test_overlay_keeps_tail(self):
        old = frag(0, 20, "old")
        new = frag(5, 5, "new")
        result = overlay((old,), new)
        assert [(f.start, f.end) for f in result] == [(0, 5), (5, 10), (10, 20)]
        # the surviving tail addresses the old stored object at the
        # matching inner offset
        assert result[2].data_offset == 10

    def test_fill_and_cover(self):
        frags = overlay((frag(0, 8, "a"),), frag(8, 4, "b"))
        assert fragments_fill(frags) == 12
        assert fragments_cover(frags, 0, 12)
        assert not fragments_cover(frags, 0, 13)

    def test_cover_detects_hole(self):
        frags = (frag(0, 4), frag(6, 4))
        assert not fragments_cover(frags, 0, 10)
        assert fragments_cover(frags, 6, 10)


@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=90),
            st.integers(min_value=1, max_value=40),
        ),
        min_size=1,
        max_size=15,
    )
)
def test_overlay_matches_byte_oracle(ops):
    """Repeated overlays behave exactly like writing into a byte array."""
    page = [-1] * 160
    frags = ()
    for writer, (start, length) in enumerate(ops):
        frags = overlay(frags, frag(start, length, f"w{writer}"))
        for i in range(start, start + length):
            page[i] = writer
    # reconstruct ownership from the fragment list
    rebuilt = [-1] * 160
    for f in frags:
        writer = int(f.page_id.writer[1:])
        for i in range(f.start, f.end):
            # fragment offsets address the original write's buffer
            assert 0 <= f.data_offset
            rebuilt[i] = writer
    assert rebuilt == page
    # fragments are sorted and non-overlapping
    for a, b in zip(frags, frags[1:]):
        assert a.end <= b.start


@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=90),
            st.integers(min_value=1, max_value=40),
        ),
        min_size=1,
        max_size=15,
    ),
    tail_gap=st.integers(min_value=0, max_value=8),
)
def test_overlay_tail_fast_path_equals_general_path(ops, tail_gap):
    """A tuple input whose last fragment ends at or before the new one
    takes a shortcut; a list input always takes the walk (and its
    overlap guard). Both must agree — on random overlays and on a
    guaranteed tail append after them."""
    frags = ()
    for writer, (start, length) in enumerate(ops):
        new = frag(start, length, f"w{writer}")
        general = overlay(list(frags), new)
        assert overlay(frags, new) == general
        frags = general
    tail = frag(frags[-1].end + tail_gap, 5, "tail")
    assert overlay(frags, tail) == overlay(list(frags), tail) == frags + (tail,)
