"""Intrusive doubly-linked list for the structures that need node links.

LRU, BPLRU and VBBMS keep their recency order in a C-implemented
:class:`collections.OrderedDict` instead: promote, demote and evict are
all O(1) there, with no node object per entry.  This list stays where
the node's own links are the point:

* Req-block's IRL/SRL/DRL (:mod:`repro.core.multilist`) move a block
  *between* lists and peek all three tails before every eviction; with
  the links and owner on the node, the move is pointer surgery and the
  peek an attribute load (an ``OrderedDict`` tail peek builds an
  iterator);
* ECR and CFLRU walk ``prev`` pointers from the tail to scan their
  eviction window; FIFO shares ECR's page node;
* LFU and FAB move nodes between frequency/size buckets, and PUD-LRU
  unlinks its victim from the middle of its list;
* DFTL's cached mapping table orders its entries on one.

The node object carries the ``prev``/``next`` pointers and a
back-reference to the owning list, which makes cross-list moves
explicit and checkable.  The list maintains a length counter and a
sentinel-free head/tail pair; ``validate()`` walks the chain and
asserts structural invariants, which the property-based test-suite
leans on heavily.
"""

from __future__ import annotations

from typing import Generic, Iterator, Optional, TypeVar

__all__ = ["DLLNode", "DoublyLinkedList"]


class DLLNode:
    """A node that can live in at most one :class:`DoublyLinkedList`.

    Subclass this (or compose it) to attach payload.  The node keeps a
    reference to its owning list so that membership checks and cross-list
    moves are O(1) and mistakes (e.g. inserting a node into two lists)
    raise immediately instead of corrupting pointers.
    """

    __slots__ = ("prev", "next", "owner")

    def __init__(self) -> None:
        self.prev: Optional[DLLNode] = None
        self.next: Optional[DLLNode] = None
        self.owner: Optional[DoublyLinkedList] = None


T = TypeVar("T", bound=DLLNode)


class DoublyLinkedList(Generic[T]):
    """Intrusive doubly-linked list with O(1) head/tail/remove.

    Parameters
    ----------
    name:
        Optional label used in error messages and ``repr`` — handy when a
        policy juggles several lists (IRL/SRL/DRL).
    """

    __slots__ = ("name", "_head", "_tail", "_len")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._head: Optional[T] = None
        self._tail: Optional[T] = None
        self._len = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __iter__(self) -> Iterator[T]:
        """Iterate head -> tail.

        Mutating the list while iterating is not supported; take a
        snapshot (``list(dll)``) first if you need to mutate.
        """
        node = self._head
        while node is not None:
            yield node  # type: ignore[misc]
            node = node.next  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.name or "dll"
        return f"<DoublyLinkedList {label!r} len={self._len}>"

    @property
    def head(self) -> Optional[T]:
        """First (most-recently inserted/promoted) node, or ``None``."""
        return self._head

    @property
    def tail(self) -> Optional[T]:
        """Last (least-recently touched) node, or ``None``."""
        return self._tail

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def push_head(self, node: T) -> None:
        """Insert ``node`` at the head (MRU position)."""
        if node.owner is not None:
            raise ValueError(
                f"node already belongs to list {node.owner.name!r}; "
                f"remove it before inserting into {self.name!r}"
            )
        node.owner = self
        head = self._head
        node.prev = None
        node.next = head
        if head is not None:
            head.prev = node
        else:
            self._tail = node
        self._head = node
        self._len += 1

    def remove(self, node: T) -> None:
        """Unlink ``node`` from this list in O(1)."""
        if node.owner is not self:
            raise ValueError(
                f"cannot remove node from {self.name!r}: it belongs to "
                f"{node.owner.name if node.owner else None!r}"
            )
        prev = node.prev
        nxt = node.next
        if prev is not None:
            prev.next = nxt
        else:
            self._head = nxt  # type: ignore[assignment]
        if nxt is not None:
            nxt.prev = prev
        else:
            self._tail = prev  # type: ignore[assignment]
        node.prev = node.next = None
        node.owner = None
        self._len -= 1

    def move_to_head(self, node: T) -> None:
        """Promote ``node`` (already in this list) to the head.

        Pointer surgery is inlined (no remove + push pair): this is the
        single hottest list operation of every replay, so it avoids the
        ownership churn and the two extra function calls.
        """
        if node.owner is not self:
            raise ValueError("node is not in this list")
        head = self._head
        if head is node:
            return
        # Unlink; node is not the head, so node.prev is a real node.
        prev = node.prev
        nxt = node.next
        prev.next = nxt
        if nxt is not None:
            nxt.prev = prev
        else:
            self._tail = prev
        # Relink in front of the old head.
        node.prev = None
        node.next = head
        head.prev = node
        self._head = node

    def pop_tail(self) -> Optional[T]:
        """Remove and return the tail node, or ``None`` if empty."""
        node = self._tail
        if node is None:
            return None
        prev = node.prev
        if prev is not None:
            prev.next = None
        else:
            self._head = None
        self._tail = prev  # type: ignore[assignment]
        node.prev = node.next = None
        node.owner = None
        self._len -= 1
        return node

    def clear(self) -> None:
        """Unlink every node (O(n))."""
        node = self._head
        while node is not None:
            nxt = node.next
            node.prev = node.next = None
            node.owner = None
            node = nxt  # type: ignore[assignment]
        self._head = self._tail = None
        self._len = 0

    # ------------------------------------------------------------------
    # Invariant checking (used by tests)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Walk the chain asserting structural invariants.

        Walks forward *and* backward, checking the stored length
        against both directions — a ``next``-chain that loses a node
        while the ``prev``-chain keeps it (or vice versa) is invisible
        to a single-direction walk.  Raises ``AssertionError`` on
        corruption.  O(n); intended for the test-suite, not hot paths.
        """
        count = 0
        prev = None
        node = self._head
        while node is not None:
            assert node.owner is self, "node owner mismatch"
            assert node.prev is prev, "broken prev pointer"
            prev = node
            node = node.next
            count += 1
            assert count <= self._len, "cycle detected or length undercount"
        assert prev is self._tail, "tail pointer mismatch"
        assert (
            count == self._len
        ), f"length mismatch: walked {count}, stored {self._len}"
        count_back = 0
        nxt = None
        node = self._tail
        while node is not None:
            assert node.next is nxt, "broken next pointer"
            nxt = node
            node = node.prev
            count_back += 1
            assert (
                count_back <= self._len
            ), "cycle detected or length undercount (backward)"
        assert nxt is self._head, "head pointer mismatch"
        assert count_back == self._len, (
            f"length mismatch: walked {count_back} backward, stored {self._len}"
        )
        if self._len == 0:
            assert self._head is None and self._tail is None
