"""Retry policy with exponential backoff, deterministic jitter, quarantine.

The :class:`~repro.parallel.pool.WorkerPool` re-dispatches a failed task
attempt according to a :class:`RetryPolicy`.  Two properties make the
retries production-grade *and* reproducible:

* **Exponential backoff with deterministic jitter.**  The delay before
  attempt ``k`` is ``min(max_delay, base_delay * 2**(k-1))`` scaled by a
  jitter factor drawn from a generator seeded by the task's *payload
  digest* and attempt number - so two runs of the same workload back off
  identically (no wall-clock or PID entropy), while different tasks
  de-synchronise instead of thundering back in lockstep.
* **Poison-task quarantine.**  After ``max_attempts`` total attempts the
  task is abandoned: the pool records the payload digest in a
  :class:`~repro.obs.events.QuarantineEvent` (digest, not payload - the
  event stream stays small and free of problem data) and the rest of the
  batch proceeds.  The digest identifies the poison payload across runs,
  which is what makes "this exact input keeps killing workers" an
  actionable audit line.

Which failure kinds are retried is the policy's ``retry_kinds`` set;
budget stops are never retried (they are verdicts, not failures).
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

DEFAULT_RETRIES_ENV = "REPRO_TASK_RETRIES"
"""Environment variable giving the default total attempts per task."""

RETRYABLE_KINDS: Tuple[str, ...] = ("error", "crash", "hang", "integrity")
"""Failure kinds a retry can plausibly cure (transient faults)."""


class IntegrityError(RuntimeError):
    """A worker result failed parent-side re-verification.

    Raised by ``verify`` callbacks handed to
    :meth:`~repro.parallel.pool.WorkerPool.map`; the pool converts it
    into an ``integrity``-kind task failure (reject-and-retry) instead
    of accepting a silently wrong result into the fold.
    """


def payload_digest(payload) -> str:
    """Stable short digest identifying a task payload across runs.

    Pickle is deterministic for the payload shapes the pools ship
    (tuples of names, numbers, arrays, ``SeedSequence``); unpicklable
    payloads fall back to a digest of their ``repr``.
    """
    try:
        raw = pickle.dumps(payload, protocol=4)
    except Exception:
        raw = repr(payload).encode("utf-8", "replace")
    return hashlib.sha256(raw).hexdigest()[:16]


@dataclass(frozen=True)
class RetryPolicy:
    """How a pool re-dispatches failed task attempts.

    Parameters
    ----------
    max_attempts:
        Total attempts per task (first try included); ``1`` disables
        retries while keeping quarantine accounting uniform.
    base_delay:
        Backoff before the first retry, in seconds; doubles per retry.
    max_delay:
        Backoff ceiling.
    jitter:
        Jitter amplitude in ``[0, 1]``: the delay is scaled by a factor
        drawn uniformly from ``[1 - jitter, 1 + jitter)``.
    retry_kinds:
        Task-failure kinds eligible for retry.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    retry_kinds: Tuple[str, ...] = field(default=RETRYABLE_KINDS)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    # ------------------------------------------------------------------
    def should_retry(self, kind: str, attempt: int) -> bool:
        """Whether attempt ``attempt`` (0-based) failing with ``kind`` retries."""
        return attempt + 1 < self.max_attempts and kind in self.retry_kinds

    def delay_seconds(self, digest: str, attempt: int) -> float:
        """Deterministic backoff before re-dispatching attempt ``attempt + 1``.

        Seeded by ``(payload digest, attempt)``, never by wall clock or
        process identity, so a re-run of the same workload waits the
        same spans - retries stay inside the reproducibility contract.
        """
        backoff = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        if backoff <= 0.0:
            return 0.0
        if self.jitter == 0.0:
            return backoff
        seed = np.random.SeedSequence(
            int(digest, 16) & (2**63 - 1), spawn_key=(attempt,)
        )
        factor = 1.0 + self.jitter * (
            2.0 * np.random.default_rng(seed).random() - 1.0
        )
        return backoff * factor

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls) -> Optional["RetryPolicy"]:
        """Policy from ``REPRO_TASK_RETRIES`` (total attempts), or ``None``.

        Unset, empty, non-integer, or values below 2 mean "no retries" -
        the pool then surfaces first failures directly, which is the
        seed behaviour every existing caller was tested against.
        """
        raw = os.environ.get(DEFAULT_RETRIES_ENV, "").strip()
        if not raw:
            return None
        try:
            attempts = int(raw)
        except ValueError:
            return None
        if attempts < 2:
            return None
        return cls(max_attempts=attempts)

    @classmethod
    def resolve(cls, policy: Optional["RetryPolicy"]) -> Optional["RetryPolicy"]:
        """Explicit policy > environment default > no retries."""
        return policy if policy is not None else cls.from_env()


__all__ = [
    "DEFAULT_RETRIES_ENV",
    "IntegrityError",
    "RETRYABLE_KINDS",
    "RetryPolicy",
    "payload_digest",
]
