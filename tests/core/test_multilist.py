"""Tests for the IRL/SRL/DRL three-level list container."""

from __future__ import annotations

import pytest

from repro.core.multilist import ListLevel, ThreeLevelLists
from repro.core.request_block import RequestBlock


def block(req_id=0, pages=(1,), t=0):
    b = RequestBlock(req_id, t)
    b.pages.update(pages)
    return b


class TestMembership:
    def test_push_and_level(self):
        lists = ThreeLevelLists()
        b = block()
        lists.push_head(ListLevel.IRL, b)
        assert lists.level_of(b) is ListLevel.IRL
        assert lists.head(ListLevel.IRL) is b
        assert list(lists.blocks(ListLevel.IRL)) == [b]
        lists.validate()

    def test_remove_returns_level(self):
        lists = ThreeLevelLists()
        b = block()
        lists.push_head(ListLevel.SRL, b)
        assert lists.remove(b) is ListLevel.SRL
        assert lists.level_of(b) is None
        lists.validate()


class TestPageCounting:
    def test_counts_follow_pushes(self):
        lists = ThreeLevelLists()
        lists.push_head(ListLevel.IRL, block(pages=(1, 2, 3)))
        lists.push_head(ListLevel.SRL, block(pages=(5,)))
        assert lists.page_count(ListLevel.IRL) == 3
        assert lists.page_count(ListLevel.SRL) == 1
        assert lists.total_pages() == 4
        lists.validate()

    def test_note_page_added_removed(self):
        lists = ThreeLevelLists()
        b = block(pages=(1,))
        lists.push_head(ListLevel.DRL, b)
        b.pages.add(2)
        lists.note_page_added(b)
        assert lists.page_count(ListLevel.DRL) == 2
        b.pages.discard(1)
        lists.note_page_removed(b)
        assert lists.page_count(ListLevel.DRL) == 1
        lists.validate()


class TestTails:
    def test_tails_skip_empty_lists(self):
        lists = ThreeLevelLists()
        assert lists.tails() == []
        b = block()
        lists.push_head(ListLevel.DRL, b)
        assert lists.tails() == [(ListLevel.DRL, b)]

    def test_tail_is_oldest(self):
        lists = ThreeLevelLists()
        first, second = block(pages=(1,)), block(pages=(2,))
        lists.push_head(ListLevel.IRL, first)
        lists.push_head(ListLevel.IRL, second)
        assert list(lists.blocks(ListLevel.IRL))[-1] is first

    def test_total_blocks(self):
        lists = ThreeLevelLists()
        for i in range(3):
            lists.push_head(ListLevel.IRL, block(pages=(i,)))
        lists.push_head(ListLevel.SRL, block(pages=(100,)))
        assert lists.total_blocks() == 4

    def test_blocks_iterator(self):
        lists = ThreeLevelLists()
        a, b = block(pages=(1,)), block(pages=(2,))
        lists.push_head(ListLevel.IRL, a)
        lists.push_head(ListLevel.IRL, b)
        assert list(lists.blocks(ListLevel.IRL)) == [b, a]
