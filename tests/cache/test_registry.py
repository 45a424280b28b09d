"""Tests for the policy registry."""

from __future__ import annotations

import pytest

from repro.cache.base import CachePolicy
from repro.cache import registry as registry_module
from repro.cache.registry import (
    PAPER_COMPARISON,
    available_policies,
    create_policy,
    policy_class,
    register_policy,
)


@pytest.fixture(autouse=True)
def _restore_registry():
    """Snapshot the global registry so stub registrations here do not
    leak into other tests (the registry is process-global state)."""
    saved = dict(registry_module._REGISTRY)
    yield
    registry_module._REGISTRY.clear()
    registry_module._REGISTRY.update(saved)


class TestRegistry:
    def test_all_builtins_present(self):
        """Every built-in scheme, each under exactly one name."""
        assert available_policies() == [
            "bplru",
            "cflru",
            "ecr",
            "fab",
            "fifo",
            "lfu",
            "lru",
            "pudlru",
            "reqblock",
            "reqblock-adaptive",
            "vbbms",
        ]

    def test_paper_comparison_subset(self):
        assert PAPER_COMPARISON == ["lru", "bplru", "vbbms", "reqblock"]
        for name in PAPER_COMPARISON:
            assert name in available_policies()

    def test_create_policy(self):
        p = create_policy("lru", 16)
        assert p.capacity_pages == 16
        assert p.name == "lru"

    def test_create_with_kwargs(self):
        p = create_policy("reqblock", 16, delta=3)
        assert p.delta == 3  # type: ignore[attr-defined]

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="known:"):
            policy_class("nope")

    def test_register_custom(self):
        class Custom(CachePolicy):
            name = "custom-test-policy"

            def access(self, request):  # pragma: no cover - stub
                raise NotImplementedError

            def occupancy(self):
                return 0

            def contains(self, lpn):
                return False

            def cached_lpns(self):
                return []

            def metadata_nodes(self):
                return 0

        register_policy(Custom)
        assert policy_class("custom-test-policy") is Custom
        # Re-registering the same class is idempotent.
        register_policy(Custom)

    def test_conflicting_name_rejected(self):
        from repro.cache.lru import LRUCache

        class Fake(LRUCache):
            name = "lru"

        with pytest.raises(ValueError, match="already registered"):
            register_policy(Fake)

    def test_unnamed_rejected(self):
        class NoName(CachePolicy):
            name = ""

            def access(self, request):  # pragma: no cover - stub
                raise NotImplementedError

            def occupancy(self):
                return 0

            def contains(self, lpn):
                return False

            def cached_lpns(self):
                return []

            def metadata_nodes(self):
                return 0

        with pytest.raises(ValueError, match="no registry name"):
            register_policy(NoName)
