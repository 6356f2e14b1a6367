"""Repair QoS: token-bucket budget with AIMD foreground protection.

Rebuild I/O competes with foreground reads for the same spindles
(Rashmi et al., PAPERS.md: recovery traffic is a first-order tenant of
the cluster, not an offline batch job).  :class:`RepairThrottle` bounds
that competition two ways:

* a **token bucket** over physical element operations — each quantum
  deposits ``budget_per_step`` tokens and a window only runs once the
  bucket covers its cost.  The windowed-transfer executor
  (:mod:`repro.migrate.transfer`) spends through this bucket for every
  throttled transfer — the migrator's ``budget_per_step`` builds one
  too — so repair and migration are throttled in the same currency;
* an **AIMD controller** keyed to the foreground tail — the caller
  periodically reports the foreground p99 against the clean baseline
  (:meth:`observe_foreground`); when the ratio exceeds ``target_ratio``
  the budget is cut multiplicatively (back off hard, immediately), and
  while it stays under, the budget recovers additively (probe gently).
  That is TCP's congestion story applied to repair bandwidth, and it is
  what turns the graceful-degradation contract — foreground p99 ≤
  ``target_ratio`` × clean while rebuilding — from an aspiration into a
  control loop.
"""

from __future__ import annotations

__all__ = ["RepairThrottle"]


class RepairThrottle:
    """Token bucket + AIMD budget controller for repair I/O.

    Parameters
    ----------
    budget_per_step:
        Initial token deposit per repair quantum, in physical element
        operations.
    min_budget / max_budget:
        AIMD clamp.  ``min_budget`` keeps rebuild from stalling forever
        (starving repair trades a bounded slowdown now for a second
        failure window later); ``max_budget`` bounds the burst.
    target_ratio:
        Foreground p99 / clean-baseline p99 above which the controller
        backs off.  The default 1.5 is the repo's rebuild QoS contract.
    increase:
        Additive budget recovery per under-target observation.
    decrease:
        Multiplicative factor applied per over-target observation.
    """

    def __init__(
        self,
        budget_per_step: int = 64,
        *,
        min_budget: int = 8,
        max_budget: int = 4096,
        target_ratio: float = 1.5,
        increase: int = 8,
        decrease: float = 0.5,
    ) -> None:
        if budget_per_step <= 0:
            raise ValueError(f"budget_per_step must be > 0, got {budget_per_step}")
        if not 0 < min_budget <= max_budget:
            raise ValueError(
                f"need 0 < min_budget <= max_budget, got {min_budget}/{max_budget}"
            )
        if not min_budget <= budget_per_step <= max_budget:
            raise ValueError(
                f"budget_per_step {budget_per_step} outside "
                f"[{min_budget}, {max_budget}]"
            )
        if target_ratio <= 1.0:
            raise ValueError(f"target_ratio must be > 1, got {target_ratio}")
        if increase <= 0:
            raise ValueError(f"increase must be > 0, got {increase}")
        if not 0.0 < decrease < 1.0:
            raise ValueError(f"decrease must be in (0, 1), got {decrease}")
        self.budget_per_step = budget_per_step
        self.min_budget = min_budget
        self.max_budget = max_budget
        self.target_ratio = target_ratio
        self.increase = increase
        self.decrease = decrease
        self._tokens = 0
        self.spent = 0
        self.stalls = 0
        self.backoffs = 0
        self.recoveries = 0
        self.last_ratio: float | None = None

    # ------------------------------------------------------------------
    # token bucket
    # ------------------------------------------------------------------
    def refill(self) -> None:
        """Deposit one quantum's tokens (capped at one max-budget burst)."""
        self._tokens = min(self._tokens + self.budget_per_step, self.max_budget)

    def spend(self, cost: int) -> bool:
        """Try to pay ``cost`` tokens; False (and a stall) if short."""
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost}")
        if self._tokens < cost:
            self.stalls += 1
            return False
        self._tokens -= cost
        self.spent += cost
        return True

    # ------------------------------------------------------------------
    # AIMD controller
    # ------------------------------------------------------------------
    def observe_foreground(self, p99_s: float, clean_p99_s: float) -> float:
        """Fold one foreground-tail observation into the budget.

        Returns the observed ratio.  A non-positive baseline is ignored
        (ratio 1.0): no baseline, no adjustment.
        """
        if clean_p99_s <= 0.0 or p99_s < 0.0:
            return 1.0
        ratio = p99_s / clean_p99_s
        self.last_ratio = ratio
        if ratio > self.target_ratio:
            self.budget_per_step = max(
                self.min_budget, int(self.budget_per_step * self.decrease)
            )
            self.backoffs += 1
        else:
            self.budget_per_step = min(
                self.max_budget, self.budget_per_step + self.increase
            )
            self.recoveries += 1
        return ratio

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Plain-dict view for the ``recovery.throttle.*`` namespace."""
        return {
            "budget_per_step": self.budget_per_step,
            "tokens": self._tokens,
            "spent": self.spent,
            "stalls": self.stalls,
            "backoffs": self.backoffs,
            "recoveries": self.recoveries,
            "target_ratio": self.target_ratio,
            "last_ratio": self.last_ratio,
        }
