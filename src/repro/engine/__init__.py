"""Read engine: planning and timed execution of normal and degraded reads.

* :mod:`repro.engine.requests` — request/plan data types and metrics;
* :mod:`repro.engine.planner` — normal-read planning;
* :mod:`repro.engine.degraded` — degraded-read planning with repair sets;
* :mod:`repro.engine.executor` — timing plans against the disk simulator;
* :mod:`repro.engine.plancache` — LRU memoization of the planners;
* :mod:`repro.engine.service` — batched, plan-cached concurrent reads;
* :mod:`repro.engine.pipeline` — open-loop event scheduler with hedged
  sub-reads, admission control and request coalescing.
"""

from .concurrency import ThroughputResult, simulate_concurrent
from .degraded import plan_degraded_read
from .executor import ReadOutcome, execute_plan, simulate_plan
from .multifailure import plan_degraded_read_multi
from .optimizing import plan_degraded_read_optimized
from .pipeline import (
    AdmissionController,
    HedgeConfig,
    OpenLoopResult,
    OpenLoopWorkload,
    RequestPipeline,
)
from .plancache import (
    PlanCache,
    PlanCacheStats,
    UnsupportedFailurePatternError,
    placement_signature,
)
from .planner import plan_normal_read
from .rebuild import RebuildPlan, plan_disk_rebuild, rebuild_time_s
from .requests import AccessKind, AccessPlan, ElementAccess, ReadRequest
from .service import BatchReadResult, ReadService, ServiceCounters

__all__ = [
    "ReadRequest",
    "ElementAccess",
    "AccessKind",
    "AccessPlan",
    "plan_normal_read",
    "plan_degraded_read",
    "plan_degraded_read_multi",
    "ReadOutcome",
    "simulate_plan",
    "execute_plan",
    "plan_degraded_read_optimized",
    "RebuildPlan",
    "plan_disk_rebuild",
    "rebuild_time_s",
    "ThroughputResult",
    "simulate_concurrent",
    "PlanCache",
    "PlanCacheStats",
    "UnsupportedFailurePatternError",
    "placement_signature",
    "ReadService",
    "BatchReadResult",
    "ServiceCounters",
    "OpenLoopWorkload",
    "AdmissionController",
    "HedgeConfig",
    "RequestPipeline",
    "OpenLoopResult",
]
