"""DRAM cache policies: framework, baselines, and the policy registry."""

from repro.cache.base import (
    AccessOutcome,
    CachePolicy,
    FlushBatch,
    PageEvictions,
    WriteBufferPolicy,
)
from repro.cache.bplru import BPLRUCache
from repro.cache.cflru import CFLRUCache
from repro.cache.ecr import DeviceFeedback, ECRCache
from repro.cache.fab import FABCache
from repro.cache.fifo import FIFOCache
from repro.cache.lfu import LFUCache
from repro.cache.lru import LRUCache
from repro.cache.pudlru import PUDLRUCache
from repro.cache.registry import (
    PAPER_COMPARISON,
    available_policies,
    create_policy,
    policy_class,
    register_policy,
)
from repro.cache.tenant import PARTITION_MODES, TenantPartitioner, split_capacity
from repro.cache.vbbms import VBBMSCache

__all__ = [
    "AccessOutcome",
    "CachePolicy",
    "FlushBatch",
    "PageEvictions",
    "WriteBufferPolicy",
    "BPLRUCache",
    "CFLRUCache",
    "DeviceFeedback",
    "ECRCache",
    "FABCache",
    "FIFOCache",
    "LFUCache",
    "LRUCache",
    "PUDLRUCache",
    "VBBMSCache",
    "PARTITION_MODES",
    "TenantPartitioner",
    "split_capacity",
    "PAPER_COMPARISON",
    "available_policies",
    "create_policy",
    "policy_class",
    "register_policy",
]
