"""The three-level list structure of Req-block (Fig. 4).

* **IRL** — Inserted Request List: every new request block starts here.
* **SRL** — Small Request List: blocks with ``page_num <= δ`` that were
  hit are promoted here.
* **DRL** — Divided Request List: blocks holding the hit pages split out
  of large blocks.

This module keeps the bookkeeping the policy needs on top of the raw
lists: which level a block is on, per-level page counts (Figure 13
plots exactly these), and O(1) cross-level moves.

Membership is intrusive: the block's :class:`~repro.utils.dll.DLLNode`
``owner`` pointer identifies its list, and each list carries its level
and running page count.  The earlier implementation kept a side dict
keyed by ``id(block)`` plus an enum-keyed page-count dict; both are gone
— a cross-level move is now pure pointer surgery plus two integer adds,
with no hashing on the hot path.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Optional, Tuple

from repro.core.request_block import RequestBlock
from repro.utils.dll import DoublyLinkedList

__all__ = ["ListLevel", "ThreeLevelLists"]


class ListLevel(enum.Enum):
    """The three lists, lowest to highest privilege."""

    IRL = "IRL"
    SRL = "SRL"
    DRL = "DRL"


class _LevelList(DoublyLinkedList):
    """One of the three lists: a DLL that knows its level and page count."""

    __slots__ = ("level", "pages")

    def __init__(self, level: ListLevel) -> None:
        super().__init__(level.value)
        self.level = level
        self.pages = 0


class ThreeLevelLists:
    """IRL/SRL/DRL container with per-level page accounting."""

    __slots__ = ("_irl", "_srl", "_drl")

    def __init__(self) -> None:
        self._irl = _LevelList(ListLevel.IRL)
        self._srl = _LevelList(ListLevel.SRL)
        self._drl = _LevelList(ListLevel.DRL)

    def _list_for(self, level: ListLevel) -> _LevelList:
        # Identity dispatch: cheaper than an enum-keyed dict (Enum's
        # Python-level __hash__ showed up in replay profiles).
        if level is ListLevel.IRL:
            return self._irl
        if level is ListLevel.SRL:
            return self._srl
        return self._drl

    def _all_lists(self) -> Tuple[_LevelList, _LevelList, _LevelList]:
        return (self._irl, self._srl, self._drl)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def level_of(self, block: RequestBlock) -> Optional[ListLevel]:
        """The list currently holding ``block`` (None if detached)."""
        owner = block.owner
        return owner.level if owner is not None else None  # type: ignore[union-attr]

    def head(self, level: ListLevel) -> Optional[RequestBlock]:
        """MRU block of ``level`` (None if empty)."""
        return self._list_for(level).head

    def tail(self, level: ListLevel) -> Optional[RequestBlock]:
        """Eviction-candidate block of ``level`` (None if empty)."""
        return self._list_for(level).tail

    def tails(self) -> List[Tuple[ListLevel, RequestBlock]]:
        """Non-empty lists' tail blocks — the eviction candidates."""
        out = []
        for lst in self._all_lists():
            if lst.tail is not None:
                out.append((lst.level, lst.tail))
        return out

    def blocks(self, level: ListLevel) -> Iterator[RequestBlock]:
        """Iterate ``level`` head -> tail."""
        return iter(self._list_for(level))

    def block_count(self, level: ListLevel) -> int:
        """Request blocks currently on ``level``."""
        return len(self._list_for(level))

    def page_count(self, level: ListLevel) -> int:
        """Cached pages currently on ``level`` (Fig. 13's series)."""
        return self._list_for(level).pages

    def total_blocks(self) -> int:
        """Request blocks across all three lists."""
        return len(self._irl) + len(self._srl) + len(self._drl)

    def total_pages(self) -> int:
        """Cached pages across all three lists."""
        return self._irl.pages + self._srl.pages + self._drl.pages

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def push_head(self, level: ListLevel, block: RequestBlock) -> None:
        """Insert a block not currently on any list at ``level``'s head."""
        lst = self._list_for(level)
        lst.push_head(block)
        lst.pages += len(block.pages)

    def remove(self, block: RequestBlock) -> ListLevel:
        """Detach ``block`` from whichever list holds it."""
        lst = block.owner
        if lst is None:
            raise ValueError("block is not on any list")
        lst.remove(block)
        lst.pages -= len(block.pages)  # type: ignore[attr-defined]
        return lst.level  # type: ignore[union-attr]

    def move_to_head(self, level: ListLevel, block: RequestBlock) -> None:
        """Move ``block`` (possibly across lists) to ``level``'s head."""
        lst = self._list_for(level)
        owner = block.owner
        if owner is lst:
            lst.move_to_head(block)
            return
        if owner is not None:
            n = len(block.pages)
            owner.remove(block)
            owner.pages -= n  # type: ignore[attr-defined]
        lst.push_head(block)
        lst.pages += len(block.pages)

    def note_page_added(self, block: RequestBlock) -> None:
        """Adjust the page count after a page joined ``block`` in place."""
        block.owner.pages += 1  # type: ignore[union-attr]

    def note_page_removed(self, block: RequestBlock) -> None:
        """Adjust the page count after a page left ``block`` in place."""
        block.owner.pages -= 1  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural invariants: list membership and page counts agree."""
        for lst in self._all_lists():
            lst.validate()
            pages = 0
            for block in lst:
                assert block.owner is lst, (
                    f"block {block!r} in {lst.level} list but owner disagrees"
                )
                assert block.page_num > 0, f"empty block retained on {lst.level}"
                pages += block.page_num
            assert pages == lst.pages, (
                f"{lst.level}: counted {pages} pages, cached {lst.pages}"
            )
