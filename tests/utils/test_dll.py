"""Unit and property-based tests for the intrusive doubly-linked list."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.dll import DLLNode, DoublyLinkedList


class Node(DLLNode):
    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__()
        self.value = value


def values(dll):
    return [n.value for n in dll]


def filled(nodes):
    """A list holding ``nodes`` head to tail (pushed in reverse)."""
    dll = DoublyLinkedList()
    for n in reversed(nodes):
        dll.push_head(n)
    return dll


class TestBasicOps:
    def test_empty(self):
        dll = DoublyLinkedList("t")
        assert len(dll) == 0
        assert not dll
        assert dll.head is None and dll.tail is None
        assert dll.pop_tail() is None
        dll.validate()

    def test_push_head_order(self):
        dll = DoublyLinkedList()
        for v in (1, 2, 3):
            dll.push_head(Node(v))
        assert values(dll) == [3, 2, 1]
        assert dll.head.value == 3 and dll.tail.value == 1
        dll.validate()

    def test_remove_middle(self):
        nodes = [Node(v) for v in range(5)]
        dll = filled(nodes)
        dll.remove(nodes[2])
        assert values(dll) == [0, 1, 3, 4]
        assert nodes[2].owner is None
        dll.validate()

    def test_remove_head_and_tail(self):
        nodes = [Node(v) for v in range(3)]
        dll = filled(nodes)
        dll.remove(nodes[0])
        dll.remove(nodes[2])
        assert values(dll) == [1]
        assert dll.head is dll.tail is nodes[1]
        dll.validate()

    def test_move_to_head(self):
        nodes = [Node(v) for v in range(4)]
        dll = filled(nodes)
        dll.move_to_head(nodes[3])
        assert values(dll) == [3, 0, 1, 2]
        dll.move_to_head(nodes[3])  # already head: no-op
        assert values(dll) == [3, 0, 1, 2]
        dll.validate()

    def test_pop(self):
        dll = filled([Node(v) for v in range(3)])
        assert dll.pop_tail().value == 2
        assert dll.pop_tail().value == 1
        assert dll.head is dll.tail and dll.tail.value == 0
        assert dll.pop_tail().value == 0
        assert len(dll) == 0
        dll.validate()

    def test_clear(self):
        dll = DoublyLinkedList()
        nodes = [Node(v) for v in range(10)]
        for n in nodes:
            dll.push_head(n)
        dll.clear()
        assert len(dll) == 0
        assert all(n.owner is None for n in nodes)
        dll.validate()


class TestErrorHandling:
    def test_double_insert_rejected(self):
        dll = DoublyLinkedList("x")
        n = Node(1)
        dll.push_head(n)
        with pytest.raises(ValueError, match="already belongs"):
            dll.push_head(n)

    def test_cross_list_insert_rejected(self):
        dll1, dll2 = DoublyLinkedList("one"), DoublyLinkedList("two")
        n = Node(1)
        dll1.push_head(n)
        with pytest.raises(ValueError):
            dll2.push_head(n)

    def test_remove_foreign_node_rejected(self):
        dll1, dll2 = DoublyLinkedList(), DoublyLinkedList()
        n = Node(1)
        dll1.push_head(n)
        with pytest.raises(ValueError):
            dll2.remove(n)

    def test_remove_unlinked_node_rejected(self):
        dll = DoublyLinkedList()
        with pytest.raises(ValueError):
            dll.remove(Node(1))

    def test_move_foreign_rejected(self):
        dll = DoublyLinkedList()
        with pytest.raises(ValueError):
            dll.move_to_head(Node(1))

    def test_validate_walks_both_directions(self):
        """validate() length-checks a backward walk too, so pointer
        corruption in either chain direction must trip it."""
        for corrupt in (
            lambda ns: setattr(ns[3], "next", ns[1]),  # stray tail next
            lambda ns: setattr(ns[1], "prev", ns[2]),  # stray mid prev
            lambda ns: setattr(ns[0], "prev", ns[3]),  # head gains a prev
        ):
            nodes = [DLLNode() for _ in range(4)]
            dll = filled(nodes)
            corrupt(nodes)
            with pytest.raises(AssertionError):
                dll.validate()


@st.composite
def dll_operations(draw):
    """A random sequence of (op, arg) to replay against dict model."""
    n_ops = draw(st.integers(1, 60))
    return [
        draw(
            st.tuples(
                st.sampled_from(
                    ["push_head", "pop_tail", "remove", "move_head"]
                ),
                st.integers(0, 9),
            )
        )
        for _ in range(n_ops)
    ]


class TestProperties:
    @given(ops=dll_operations())
    @settings(max_examples=200, deadline=None)
    def test_matches_list_model(self, ops):
        """The DLL must behave exactly like a Python list reference model."""
        dll: DoublyLinkedList[Node] = DoublyLinkedList("model")
        model: list[Node] = []
        pool = {}
        counter = 0
        for op, arg in ops:
            if op == "push_head":
                n = Node(counter)
                counter += 1
                dll.push_head(n)
                model.insert(0, n)
            elif op == "pop_tail":
                got = dll.pop_tail()
                want = model.pop() if model else None
                assert got is want
            elif op == "remove" and model:
                n = model[arg % len(model)]
                dll.remove(n)
                model.remove(n)
            elif op == "move_head" and model:
                n = model[arg % len(model)]
                dll.move_to_head(n)
                model.remove(n)
                model.insert(0, n)
            dll.validate()
            assert [x.value for x in dll] == [x.value for x in model]
            assert len(dll) == len(model)
