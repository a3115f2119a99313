"""Exact lifetime counters that concurrent threads bump without a lock.

Each thread adds into its own cell, so every cell has one writer and no
update is lost; a reader sums the cells. A thread's cell is keyed by its
identifier: a later thread that inherits a finished thread's identifier
carries on in that cell, still its only writer.
"""

from __future__ import annotations

from threading import get_ident
from typing import Dict, List


class Tally:
    """*width* counters, one cell of them per thread."""

    __slots__ = ("_cells", "_width")

    def __init__(self, width: int = 1) -> None:
        self._cells: Dict[int, List[int]] = {}
        self._width = width

    def cell(self) -> List[int]:
        """The calling thread's cell: *width* ints only it adds to."""
        ident = get_ident()
        cell = self._cells.get(ident)
        if cell is None:
            cell = self._cells[ident] = [0] * self._width
        return cell

    def column(self, i: int) -> List[int]:
        """Counter *i* of every cell (``sum`` it for the total)."""
        return [cell[i] for cell in list(self._cells.values())]
