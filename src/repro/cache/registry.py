"""Policy registry: build any cache scheme by name.

The replay driver, the experiments and the CLI all refer to policies by
their string name (``"lru"``, ``"bplru"``, ``"vbbms"``, ``"reqblock"``,
...), so adding a scheme means adding one entry here (or calling
:func:`register_policy` from user code).

Each name maps to exactly one implementation: the policies keep their
lists as :class:`repro.utils.dll.DLL` nodes, and
:func:`create_policy` instantiates the registered class directly.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.cache.base import CachePolicy
from repro.cache.bplru import BPLRUCache
from repro.cache.cflru import CFLRUCache
from repro.cache.ecr import ECRCache
from repro.cache.fab import FABCache
from repro.cache.fifo import FIFOCache
from repro.cache.lfu import LFUCache
from repro.cache.lru import LRUCache
from repro.cache.pudlru import PUDLRUCache
from repro.cache.vbbms import VBBMSCache

__all__ = [
    "register_policy",
    "create_policy",
    "available_policies",
    "policy_class",
    "PAPER_COMPARISON",
]

_REGISTRY: Dict[str, Type[CachePolicy]] = {}

#: The four schemes compared throughout the paper's evaluation, in the
#: order its figures list them.
PAPER_COMPARISON: List[str] = ["lru", "bplru", "vbbms", "reqblock"]


def register_policy(cls: Type[CachePolicy]) -> Type[CachePolicy]:
    """Register a policy class under its ``name``; usable as a decorator."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no registry name")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(f"policy name {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def policy_class(name: str) -> Type[CachePolicy]:
    """The class registered under ``name`` (KeyError with hint otherwise)."""
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown cache policy {name!r}; known: {known}") from None


def create_policy(name: str, capacity_pages: int, **kwargs) -> CachePolicy:
    """Instantiate the policy registered under ``name``; keyword
    arguments pass through to the class constructor."""
    return policy_class(name)(capacity_pages, **kwargs)


def available_policies() -> List[str]:
    """Sorted names of every registered policy."""
    _ensure_builtin()
    return sorted(_REGISTRY)


def _ensure_builtin() -> None:
    """Register the built-in schemes lazily (avoids import cycles: the
    Req-block policy lives in :mod:`repro.core`, which imports this
    package's base classes)."""
    if "reqblock" in _REGISTRY:
        return
    from repro.core.policy import ReqBlockCache

    # Importing the extension module registers "reqblock-adaptive" as a
    # side effect.
    import repro.core.adaptive  # noqa: F401

    for cls in (
        LRUCache,
        FIFOCache,
        LFUCache,
        CFLRUCache,
        ECRCache,
        FABCache,
        BPLRUCache,
        PUDLRUCache,
        VBBMSCache,
        ReqBlockCache,
    ):
        register_policy(cls)
