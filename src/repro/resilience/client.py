"""The resilient client: deadlines, jittered backoff, reconnect, breaker.

:class:`ResilientServeClient` wraps the blocking
:class:`~repro.serve.protocol.ServeClient` with the retry discipline a
client needs when the daemon sheds load, the network resets, or the
process dies mid-request:

* **Idempotency stamps** -- every write carries ``(client_id, rid)``; a
  retry of one logical write reuses its rid, so the server's dedup journal
  (:mod:`repro.resilience.dedup`) acks the original result instead of
  double-applying.  One write is in flight at a time, so rids are a
  monotone watermark on the server.
* **Capped exponential backoff with full jitter** -- sleep
  ``uniform(0, min(cap, max(base * 2^attempt, retry_after_hint)))``.  The
  server's ``retry_after`` hint raises the jitter ceiling, it never becomes
  a fixed lockstep sleep (that is the stampede the jitter exists to break).
* **Transparent reconnect** -- a ``ConnectionError``/timeout/desync closes
  the socket (the stream can be half-read) and the next attempt dials
  fresh.
* **Circuit breaker** -- N consecutive transport failures open the
  circuit; requests fail fast until the cooldown elapses, then exactly one
  half-open probe decides between closing and re-opening.  Clock and sleep
  are injectable so the state machine unit-tests against a fake clock.
* **Per-request deadlines** -- the retry loop never sleeps past the
  deadline; an expired deadline raises :class:`DeadlineExceeded`, which
  marks the write *ambiguous* (maybe applied): resolve by retrying with
  the same stamp, never by assuming it was lost.
"""

from __future__ import annotations

import random
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.obs import get_registry
from repro.serve.protocol import (
    ERR_RETRY_AFTER,
    ERR_SHUTTING_DOWN,
    ProtocolError,
    ServeClient,
    ServeError,
)


class DeadlineExceeded(RuntimeError):
    """The per-request deadline expired; the write may or may not have been
    applied (ambiguous) -- only a same-stamp retry can resolve it."""

    def __init__(self, op: str, attempts: int, deadline_s: float) -> None:
        super().__init__(
            f"{op!r} exceeded its {deadline_s:.3f}s deadline "
            f"after {attempts} attempt(s)"
        )
        self.op = op
        self.attempts = attempts


class BreakerOpen(RuntimeError):
    """The circuit is open and will not admit a probe before the caller's
    deadline; fail fast instead of queueing doomed work."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(f"circuit open; retry after {retry_after:.3f}s")
        self.retry_after = retry_after


class CircuitBreaker:
    """CLOSED -> OPEN -> HALF_OPEN -> {CLOSED, OPEN} on transport health.

    Only *transport* failures (connection refused/reset, timeout, protocol
    desync) trip it -- an orderly ``RETRY_AFTER`` is the server working as
    designed, not the server being down.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        *,
        threshold: int = 5,
        cooldown_s: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("breaker cooldown must be > 0")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opens = 0
        self._opened_at = 0.0

    def acquire(self) -> float:
        """0.0 -> proceed (closed, or the half-open probe); > 0 -> the
        circuit is open, wait this long before asking again."""
        if self.state == self.OPEN:
            remaining = self.cooldown_s - (self._clock() - self._opened_at)
            if remaining > 0:
                return remaining
            self.state = self.HALF_OPEN
        return 0.0

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = self.CLOSED

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN or (
            self.state == self.CLOSED
            and self.consecutive_failures >= self.threshold
        ):
            self.state = self.OPEN
            self.opens += 1
            self._opened_at = self._clock()

    def to_dict(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "threshold": self.threshold,
            "cooldown_s": self.cooldown_s,
            "consecutive_failures": self.consecutive_failures,
            "opens": self.opens,
        }


@dataclass(frozen=True)
class RetryPolicy:
    """The retry dial of one :class:`ResilientServeClient`."""

    max_attempts: int = 16
    deadline_s: float = 30.0
    backoff_base: float = 0.02
    backoff_cap: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.deadline_s <= 0 or self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("deadline and backoff bounds must be positive")

    def delay(self, attempt: int, hint: float, rng: random.Random) -> float:
        """Full-jitter backoff for the given (1-based) failed attempt."""
        ceiling = min(
            self.backoff_cap,
            max(self.backoff_base * (2 ** (attempt - 1)), hint),
        )
        return rng.uniform(0.0, ceiling) if ceiling > 0 else 0.0


#: Transport-level failures: retry on a fresh connection.
_TRANSPORT_ERRORS = (ConnectionError, TimeoutError, OSError, ProtocolError)


class ResilientServeClient:
    """A :class:`ServeClient` that survives resets, sheds, and restarts."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: Optional[str] = None,
        timeout: float = 5.0,
        policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        clock=time.monotonic,
        sleep=time.sleep,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.client_id = client_id or f"rc-{uuid.uuid4().hex[:12]}"
        self.policy = policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker(clock=clock)
        self._clock = clock
        self._sleep = sleep
        self._rng = rng or random.Random()
        self._client: Optional[ServeClient] = None
        self._rid = 0
        self._connects = 0
        self.counters: Dict[str, int] = {
            "attempts": 0,
            "acked": 0,
            "acked_first_try": 0,
            "acked_retried": 0,
            "rejects": 0,
            "retries": 0,
            "transport_errors": 0,
            "reconnects": 0,
            "dedup_acks": 0,
        }

    # -- connection management ---------------------------------------------

    def _ensure_connected(self) -> ServeClient:
        if self._client is None:
            self._client = ServeClient(self.host, self.port, timeout=self.timeout)
            self._connects += 1
            if self._connects > 1:
                self._count("reconnects")
        return self._client

    def _drop_connection(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "ResilientServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        registry = get_registry()
        if registry.enabled:
            registry.inc(f"resilience.client.{name}", value)

    # -- the retry loop ----------------------------------------------------

    def request(
        self,
        op: str,
        *,
        idempotent: bool = False,
        deadline_s: Optional[float] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """One logical request, retried to success, a non-retryable error,
        exhausted attempts, or the deadline.

        ``idempotent=True`` stamps the request with ``(client_id, rid)``;
        the stamp is minted once here and reused verbatim by every retry,
        which is what makes retrying after an ambiguous failure safe.
        """
        if idempotent:
            self._rid += 1
            fields["client"] = self.client_id
            fields["rid"] = self._rid
        deadline = self._clock() + (
            deadline_s if deadline_s is not None else self.policy.deadline_s
        )
        attempts = 0
        last_error: Optional[BaseException] = None
        last_response: Optional[Dict[str, Any]] = None
        while True:
            wait = self.breaker.acquire()
            if wait > 0.0:
                if self._clock() + wait > deadline:
                    raise BreakerOpen(wait)
                self._sleep(wait)
                continue
            attempts += 1
            self._count("attempts")
            hint = 0.0
            try:
                response = self._ensure_connected().request(op, **fields)
            except _TRANSPORT_ERRORS as exc:
                self.breaker.record_failure()
                self._count("transport_errors")
                self._drop_connection()
                last_error, last_response = exc, None
            else:
                self.breaker.record_success()
                if response.get("ok"):
                    self._count("acked")
                    self._count(
                        "acked_first_try" if attempts == 1 else "acked_retried"
                    )
                    if response.get("deduped"):
                        self._count("dedup_acks")
                    return response
                code = response.get("code")
                if code not in (ERR_RETRY_AFTER, ERR_SHUTTING_DOWN):
                    raise ServeError(response)  # not retryable
                self._count("rejects")
                hint = float(response.get("retry_after") or 0.0)
                last_error, last_response = None, response
            if attempts >= self.policy.max_attempts:
                if last_error is not None:
                    raise last_error
                raise ServeError(last_response or {"code": "RETRIES_EXHAUSTED"})
            delay = self.policy.delay(attempts, hint, self._rng)
            if self._clock() + delay > deadline:
                raise DeadlineExceeded(op, attempts, self.policy.deadline_s)
            self._count("retries")
            if delay > 0:
                self._sleep(delay)

    # -- op wrappers (writes stamped, reads naturally idempotent) ----------

    def update(
        self,
        oid: int,
        point: Sequence[float],
        t: float,
        *,
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        return self.request(
            "update",
            idempotent=True,
            deadline_s=deadline_s,
            oid=oid,
            point=list(point),
            t=t,
        )

    def batch_update(
        self, updates: Sequence[Sequence[float]], *,
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        return self.request(
            "batch_update",
            idempotent=True,
            deadline_s=deadline_s,
            updates=[list(u) for u in updates],
        )

    def range(
        self,
        lo: Sequence[float],
        hi: Sequence[float],
        *,
        fresh: bool = False,
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        return self.request(
            "range",
            deadline_s=deadline_s,
            rect=[list(lo), list(hi)],
            fresh=fresh,
        )

    def knn(
        self,
        point: Sequence[float],
        k: int = 1,
        *,
        fresh: bool = False,
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        return self.request(
            "knn", deadline_s=deadline_s, point=list(point), k=k, fresh=fresh
        )

    def server_stats(self) -> Dict[str, Any]:
        return self.request("stats")["stats"]

    # -- introspection -----------------------------------------------------

    @property
    def last_rid(self) -> int:
        return self._rid

    def stats(self) -> Dict[str, object]:
        return {
            "client_id": self.client_id,
            "counters": dict(self.counters),
            "breaker": self.breaker.to_dict(),
        }

    def __repr__(self) -> str:
        return (
            f"ResilientServeClient({self.client_id} -> "
            f"{self.host}:{self.port}, breaker={self.breaker.state})"
        )
