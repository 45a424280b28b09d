"""Tenant-aware cache partitioning behind the CachePolicy interface.

A :class:`TenantPartitioner` wraps one inner replacement policy *per
tenant* and routes each request to its owner's policy by LBA zone
(:class:`repro.traces.tenants.TenantMap`).  Because the wrapper itself
conforms to :class:`CachePolicy`, every consumer of the interface —
replay loops, the SSD controller's drain path, power-loss salvage,
invariant checks — works unchanged; partitioning is purely a
composition decision made at policy-construction time.

Two quota disciplines are offered (``shared`` mode never constructs a
partitioner at all — the plain policy runs exactly as before, which is
what keeps single-tenant replays byte-identical):

``static``
    The capacity is split evenly; remainder pages go to the lowest
    tenant indices.  Full isolation, possibly wasteful: an idle
    tenant's quota sits empty.

``proportional``
    The capacity is split in proportion to per-tenant activity weights
    (largest-remainder rounding, ties broken by index, minimum one
    page each).  Heavy tenants get the DRAM they will actually use
    while light tenants keep a guaranteed floor.

Both disciplines are deterministic functions of ``(capacity, weights)``
— no RNG — so shard workers reconstruct identical partitions.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.cache.base import AccessOutcome, CachePolicy, FlushBatch
from repro.cache.registry import create_policy
from repro.obs.tracer import Tracer
from repro.traces.model import IORequest
from repro.traces.tenants import TenantMap
from repro.utils.validation import require_positive

__all__ = ["TenantPartitioner", "split_capacity", "PARTITION_MODES"]

#: Quota disciplines a partitioner implements (``shared`` is the
#: absence of a partitioner, see module docstring).
PARTITION_MODES = ("static", "proportional")


def split_capacity(
    capacity_pages: int,
    n_tenants: int,
    mode: str = "static",
    weights: Optional[Sequence[float]] = None,
) -> Tuple[int, ...]:
    """Per-tenant page quotas summing exactly to ``capacity_pages``.

    ``static`` ignores ``weights``; ``proportional`` requires them.
    Every tenant receives at least one page, so ``capacity_pages`` must
    be at least ``n_tenants``.  Deterministic: largest-remainder
    rounding with ties broken by tenant index.
    """
    require_positive(capacity_pages, "capacity_pages")
    require_positive(n_tenants, "n_tenants")
    if capacity_pages < n_tenants:
        raise ValueError(
            f"cannot split {capacity_pages} pages across {n_tenants} tenants "
            "(every tenant needs at least one page)"
        )
    if mode == "static":
        base, rem = divmod(capacity_pages, n_tenants)
        return tuple(base + (1 if i < rem else 0) for i in range(n_tenants))
    if mode != "proportional":
        raise ValueError(
            f"unknown partition mode {mode!r}; choose one of {PARTITION_MODES}"
        )
    if weights is None or len(weights) != n_tenants:
        raise ValueError("proportional split needs one weight per tenant")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    total = float(sum(weights))
    if total <= 0.0:
        raise ValueError("weights must not sum to zero")
    # Reserve the one-page floor, split the rest by weight with
    # largest-remainder rounding (index-ordered tie-break).
    spare = capacity_pages - n_tenants
    raw = [w / total * spare for w in weights]
    quotas = [1 + int(r) for r in raw]
    leftover = capacity_pages - sum(quotas)
    order = sorted(
        range(n_tenants), key=lambda i: (-(raw[i] - int(raw[i])), i)
    )
    for i in order[:leftover]:
        quotas[i] += 1
    return tuple(quotas)


class TenantPartitioner(CachePolicy):
    """One inner policy per tenant, routed by LBA zone.

    Built via :meth:`build` (by policy name, the normal path) or
    directly from pre-constructed inner policies (tests).  The
    aggregate view — occupancy, metadata, cached LPNs, drain — is the
    sum/union of the per-tenant views, so capacity/occupancy invariants
    hold for the whole exactly when they hold per tenant.
    """

    name = "tenant"
    # Partitioning adds no per-item metadata of its own; the inner
    # policies' nodes are counted through metadata_bytes() below.
    node_bytes = 0

    def __init__(
        self, inners: Sequence[CachePolicy], tenant_map: TenantMap
    ) -> None:
        if len(inners) != tenant_map.n_tenants:
            raise ValueError(
                f"{len(inners)} inner policies for "
                f"{tenant_map.n_tenants} tenants"
            )
        super().__init__(sum(p.capacity_pages for p in inners))
        self.tenant_map = tenant_map
        self._inners: Tuple[CachePolicy, ...] = tuple(inners)
        self._tenant_of = tenant_map.tenant_of

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        policy: str,
        capacity_pages: int,
        tenant_map: TenantMap,
        mode: str = "static",
        weights: Optional[Sequence[float]] = None,
        **policy_kwargs: object,
    ) -> "TenantPartitioner":
        """Construct the partitioned form of a registered policy."""
        quotas = split_capacity(
            capacity_pages, tenant_map.n_tenants, mode, weights
        )
        inners = [create_policy(policy, q, **policy_kwargs) for q in quotas]
        return cls(inners, tenant_map)

    # ------------------------------------------------------------------
    # CachePolicy protocol — delegate by zone, aggregate the rest.
    # ------------------------------------------------------------------
    def access(self, request: IORequest) -> AccessOutcome:
        return self._inners[self._tenant_of(request.lpn)].access(request)

    def occupancy(self) -> int:
        return sum(p.occupancy() for p in self._inners)

    def contains(self, lpn: int) -> bool:
        return self._inners[self._tenant_of(lpn)].contains(lpn)

    def cached_lpns(self) -> Iterator[int]:
        for p in self._inners:
            yield from p.cached_lpns()

    def metadata_nodes(self) -> int:
        return sum(p.metadata_nodes() for p in self._inners)

    def metadata_bytes(self) -> int:
        # Inner policies may have heterogeneous node sizes; sum their
        # own accounting instead of nodes * self.node_bytes.
        return sum(p.metadata_bytes() for p in self._inners)

    def flush_all(self) -> FlushBatch:
        lpns: List[int] = []
        for p in self._inners:
            lpns.extend(p.flush_all().lpns)
        return FlushBatch(lpns, reason="drain")

    def validate(self) -> None:
        super().validate()
        for p in self._inners:
            p.validate()

    # ------------------------------------------------------------------
    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        super().set_tracer(tracer)
        for p in self._inners:
            p.set_tracer(tracer)

    # set_metrics is intentionally NOT forwarded to the inner policies:
    # each would register its own cache.occupancy_pages collector and
    # the gauges would fight.  The base-class registration (driven by
    # the aggregate occupancy/metadata accessors above) covers the
    # whole cache; per-tenant visibility comes from the accounting
    # layer's tenants.* gauges, not from the cache.

    # ------------------------------------------------------------------
    # Tenant-level introspection (experiments, tests, gauges).
    # ------------------------------------------------------------------
    @property
    def inners(self) -> Tuple[CachePolicy, ...]:
        """The per-tenant inner policies, indexed by tenant."""
        return self._inners

    def quotas(self) -> Tuple[int, ...]:
        """Per-tenant capacity quotas in pages."""
        return tuple(p.capacity_pages for p in self._inners)

    def tenant_occupancies(self) -> Tuple[int, ...]:
        """Pages currently cached per tenant."""
        return tuple(p.occupancy() for p in self._inners)
