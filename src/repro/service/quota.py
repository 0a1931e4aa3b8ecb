"""Per-tenant token-bucket quotas for the sharded index service.

A tenant's bucket holds up to ``capacity`` tokens; every admitted
operation (one lookup key, one scan, one upsert/delete) spends one.
Refill is continuous at ``refill_per_s`` against an injectable clock —
the default clock is *manual* (:meth:`TokenBucket.advance`), so tests
and benchmarks replay deterministically; pass ``clock=time.monotonic``
for wall-clock refill in a live deployment.

Admission is all-or-nothing per batch: a batch of ``n`` ops is either
fully admitted (``n`` tokens spent atomically under the bucket lock —
no double-spend between concurrent submitters) or fully rejected with
zero spend.  The invariant the property tests pin: however many
threads submit, total admitted ops never exceed
``capacity + refill_per_s * elapsed``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional


class QuotaExceeded(RuntimeError):
    """A tenant's batch did not fit its remaining quota."""

    def __init__(self, tenant: str, requested: int, available: float):
        super().__init__(
            f"tenant {tenant!r}: batch of {requested} ops exceeds the "
            f"{available:.0f} tokens available"
        )
        self.tenant = tenant
        self.requested = requested
        self.available = available


class TokenBucket:
    """A thread-safe token bucket with an injectable (or manual) clock.

    ``capacity`` bounds the burst; ``refill_per_s`` the sustained rate.
    With no ``clock`` the bucket refills only via :meth:`advance` —
    fully deterministic, the mode every test and gate uses.
    """

    def __init__(self, capacity: float, refill_per_s: float = 0.0,
                 clock: Optional[Callable[[], float]] = None):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if refill_per_s < 0:
            raise ValueError("refill_per_s must be >= 0")
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self._clock = clock
        self._tokens = float(capacity)
        self._last = clock() if clock is not None else 0.0
        self._lock = threading.Lock()
        #: lifetime accounting (under the same lock as the balance)
        self.admitted_ops = 0
        self.rejected_ops = 0

    def _refill_locked(self) -> None:
        if self._clock is None or self.refill_per_s == 0.0:
            return
        now = self._clock()
        self._credit_locked((now - self._last) * self.refill_per_s)
        self._last = now

    def _credit_locked(self, tokens: float) -> None:
        if tokens > 0:
            self._tokens = min(self.capacity, self._tokens + tokens)

    def advance(self, seconds: float) -> None:
        """Manually credit ``seconds`` of refill (deterministic mode)."""
        if seconds < 0:
            raise ValueError("cannot advance time backwards")
        with self._lock:
            self._credit_locked(seconds * self.refill_per_s)

    @property
    def available(self) -> float:
        with self._lock:
            self._refill_locked()
            return self._tokens

    def try_acquire(self, n: int) -> bool:
        """Atomically spend ``n`` tokens, or spend nothing.

        The check and the spend happen under one lock acquisition, so
        two concurrent submitters can never both spend the same
        tokens.
        """
        if n < 0:
            raise ValueError("cannot acquire a negative token count")
        with self._lock:
            self._refill_locked()
            if n <= self._tokens:
                self._tokens -= n
                self.admitted_ops += n
                return True
            self.rejected_ops += n
            return False

    def refund(self, n: int) -> None:
        """Return ``n`` tokens spent on a batch that was later rejected
        (capped at ``capacity``, like any credit)."""
        if n < 0:
            raise ValueError("cannot refund a negative token count")
        with self._lock:
            self._credit_locked(n)
            self.admitted_ops -= n


@dataclass
class TenantQuotaStats:
    """One tenant's lifetime admission accounting."""

    tenant: str
    capacity: float
    refill_per_s: float
    available: float
    admitted_ops: int
    rejected_ops: int


class TenantQuotas:
    """The service's tenant -> token-bucket map.

    Tenants without a configured quota are unlimited (admitted with no
    accounting) unless a ``default_capacity`` is given, in which case
    an unknown tenant lazily gets its own bucket at the default shape.
    A capacity of 0 is a valid configuration: that tenant is always
    rejected (modulo refill).
    """

    def __init__(self, default_capacity: Optional[float] = None,
                 default_refill_per_s: float = 0.0,
                 clock: Optional[Callable[[], float]] = None):
        self._buckets: Dict[str, TokenBucket] = {}
        self._default_capacity = default_capacity
        self._default_refill = default_refill_per_s
        self._clock = clock
        self._lock = threading.Lock()

    def set_quota(self, tenant: str, capacity: float,
                  refill_per_s: float = 0.0) -> TokenBucket:
        bucket = TokenBucket(capacity, refill_per_s, clock=self._clock)
        with self._lock:
            self._buckets[tenant] = bucket
        return bucket

    def bucket(self, tenant: str) -> Optional[TokenBucket]:
        """The tenant's bucket; lazily created at the default shape
        when one is configured, None for unlimited tenants."""
        with self._lock:
            b = self._buckets.get(tenant)
            if b is None and self._default_capacity is not None:
                b = TokenBucket(self._default_capacity,
                                self._default_refill, clock=self._clock)
                self._buckets[tenant] = b
            return b

    def try_charge(self, tenant: str, n: int) -> bool:
        bucket = self.bucket(tenant)
        if bucket is None:
            return True
        return bucket.try_acquire(n)

    def charge(self, tenant: str, n: int) -> None:
        """Admit-or-raise: the raising twin of :meth:`try_charge`."""
        bucket = self.bucket(tenant)
        if bucket is None:
            return
        if not bucket.try_acquire(n):
            raise QuotaExceeded(tenant, n, bucket.available)

    def refund(self, tenant: str, n: int) -> None:
        """Undo a :meth:`charge` whose batch was rejected downstream."""
        bucket = self.bucket(tenant)
        if bucket is not None:
            bucket.refund(n)

    def advance(self, seconds: float) -> None:
        """Credit every configured bucket (deterministic refill)."""
        with self._lock:
            buckets = list(self._buckets.values())
        for bucket in buckets:
            bucket.advance(seconds)

    def stats(self) -> Dict[str, TenantQuotaStats]:
        with self._lock:
            items = list(self._buckets.items())
        return {
            tenant: TenantQuotaStats(
                tenant=tenant,
                capacity=b.capacity,
                refill_per_s=b.refill_per_s,
                available=b.available,
                admitted_ops=b.admitted_ops,
                rejected_ops=b.rejected_ops,
            )
            for tenant, b in items
        }


@dataclass
class QuotaConfig:
    """Declarative quota setup for :class:`repro.service.IndexService`.

    ``tenants`` maps tenant name -> (capacity, refill_per_s).  Omitted
    tenants fall back to ``default_capacity`` (None = unlimited).
    """

    default_capacity: Optional[float] = None
    default_refill_per_s: float = 0.0
    tenants: Dict[str, tuple] = field(default_factory=dict)

    def build(self, clock: Optional[Callable[[], float]] = None
              ) -> TenantQuotas:
        quotas = TenantQuotas(self.default_capacity,
                              self.default_refill_per_s, clock=clock)
        for tenant, shape in self.tenants.items():
            capacity, refill = (shape if isinstance(shape, tuple)
                                else (shape, 0.0))
            quotas.set_quota(tenant, capacity, refill)
        return quotas
