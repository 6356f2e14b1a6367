"""Wall-clock benchmark of the EC-FRM reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload clean-mixed --seed 1 --seconds 20 --trace 0

Runs one workload (see ``perfbench/README.md``) through the public API,
checks every byte read against a flat reference, prints each metric by
name with its unit and direction, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures the end-to-end metrics over a fixed number of
rounds (fresh set-up plus a fixed op program, distinct inputs per round);
``--seconds`` sets that number through the workload's nominal round time.
``--trace 1`` runs a warm-up round, one traced round and one untraced
round of the same inputs and reports the per-layer metrics; end-to-end
numbers never come from a traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SCRATCH = ROOT / ".perfbench_tmp"
MiB = 1024 * 1024

#: End-to-end metrics: name -> (unit, better).  Every workload reports
#: every one; README.md says what each means on each workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "read_p50_ms": ("ms", "lower"),
    "read_mib_s": ("MiB/s", "higher"),
    "round_s": ("s", "lower"),
    "sim_read_mib_s": ("sim_MiB/s", "higher"),
    "sim_tail_ms": ("sim_ms", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}
#: Workload-specific end-to-end metrics, printed in the report only.
REPORT_ONLY = {
    "op_failure_rate": ("fraction", "lower"),
    "read_p99_ms": ("ms", "lower"),
    "append_mib_s": ("MiB/s", "higher"),
    "append_p95_ms": ("ms", "lower"),
    "openloop_req_s": ("arrivals/s", "higher"),
    "recovery_s": ("s", "lower"),
    "sweep_s": ("s", "lower"),
    "setup_raw_s": ("s", "lower"),
    "read_p50_raw_ms": ("ms", "lower"),
    "round_raw_s": ("s", "lower"),
}
OPEN_LOOP = ("zipf-openloop", "paper-sim")
CLOSED_LOOP = ("clean-mixed", "degraded-recovery")


# The helpers return 0 on empty input, so a run whose ops all failed still
# prints its result (with correct=false) instead of crashing.
def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _above(n: int, q: float) -> int:
    """Samples strictly above the q-th percentile of n samples."""
    return n - 1 - int(q / 100 * (n - 1)) if n else 0


def _calls(rounds: list, kind: str, field: str = "walls") -> list[float]:
    return [w for r in rounds for w in getattr(r, field).get(kind, [])]


def _read_samples(workload: str, rounds: list, field: str = "walls") -> list[float]:
    """Closed loop: each read op.  Open loop: each round's read time per
    arrival, because epoch costs swing with the tier's fill state."""
    if workload in OPEN_LOOP:
        return [_div(sum(getattr(r, field).get("read", [])), r.arrivals) for r in rounds]
    return _calls(rounds, "read", field)


def end_to_end(workload: str, rounds: list, peak_rss_mib: float) -> tuple[dict, dict]:
    """(gated metrics, report-only metrics as (value, note))."""
    reads = _calls(rounds, "read")
    read_wall = sum(reads)
    lat = [x for r in rounds for x in r.sim_lat_s]
    if workload == "paper-sim":
        sim_read = statistics.fmean(r.sim_extra.get("frm_normal_mib_s", 0.0) for r in rounds)
    else:
        sim_read = _div(sum(r.sim_bytes for r in rounds), sum(r.sim_time_s for r in rounds))
        sim_read /= MiB
    if workload in OPEN_LOOP:
        sim_tail = _div(sum(lat), len(lat))  # mean of the epochs' p99
    else:
        slow = sorted(lat)[-max(1, len(lat) // 10):]
        sim_tail = _div(sum(slow), len(slow))  # mean of the slowest 10% of ops
    gated = {
        "setup_s": _median(r.total(setup=True) for r in rounds),
        "read_p50_ms": _median(_read_samples(workload, rounds)) * 1e3,
        "read_mib_s": _div(sum(r.read_bytes for r in rounds), read_wall) / MiB,
        "round_s": _median(r.total() for r in rounds),
        "sim_read_mib_s": sim_read,
        "sim_tail_ms": sim_tail * 1e3,
        "peak_rss_mib": peak_rss_mib,
    }
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    report: dict[str, tuple[float, str]] = {
        "op_failure_rate": (_div(failed, attempted), f"{failed}/{attempted} ops"),
    }
    if workload in CLOSED_LOOP:
        report["read_p99_ms"] = (
            _pct(reads, 99) * 1e3, f"n={len(reads)}, {_above(len(reads), 99)} above"
        )
    if workload == "clean-mixed":
        appends = _calls(rounds, "append")
        abytes = sum(r.append_bytes for r in rounds)
        report["append_mib_s"] = (_div(abytes, sum(appends)) / MiB, f"n={len(appends)}")
        report["append_p95_ms"] = (
            _pct(appends, 95) * 1e3, f"n={len(appends)}, {_above(len(appends), 95)} above"
        )
    if workload in OPEN_LOOP:
        arrivals = sum(r.arrivals for r in rounds)
        report["openloop_req_s"] = (_div(arrivals, read_wall), f"{arrivals} arrivals")
    if workload == "degraded-recovery":
        ticks = sorted(int(r.sim_extra.get("ticks", 0)) for r in rounds)
        report["recovery_s"] = (
            _median(sum(r.walls.get("recovery", [])) for r in rounds),
            f"per round; ticks {ticks[0]}-{ticks[-1]} + fail_shard",
        )
    if workload == "paper-sim":
        report["sweep_s"] = (
            _median(sum(r.walls.get("sweep", [])) for r in rounds),
            f"per round; {len(rounds[0].walls.get('sweep', []))} calls",
        )
    report["setup_raw_s"] = (_median(r.total("raw", setup=True) for r in rounds), "raw wall")
    report["read_p50_raw_ms"] = (
        _median(_read_samples(workload, rounds, "raw")) * 1e3, "raw wall"
    )
    report["round_raw_s"] = (_median(r.total("raw") for r in rounds), "raw wall")
    return gated, report


def _print_metric(name: str, value: float, unit: str, better: str, note: str = "") -> None:
    print(f"  {name:<28} {value:>14.6g} {unit:<12} {better:<7} {note}".rstrip())


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="op counts per round; tiny is the self-test's smoke size")
    p.add_argument("--corrupt-reference", action="store_true",
                   help="flip one reference byte (shows the byte check can fail)")
    args = p.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402 - needs SRC on the path

    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    SCRATCH.mkdir(exist_ok=True)
    try:
        with workloads.SpeedSampler() as sampler:
            if args.trace:
                rounds, rec = _traced(args, workloads)
            else:
                n = workloads.rounds_for(args.workload, args.seconds, args.size)
                rounds = [_round(args, workloads, 0)]
                # Peak RSS of one round in a fresh process: later rounds add
                # allocator fragmentation that varies from seed to seed.
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                rounds += [_round(args, workloads, rnd) for rnd in range(1, n)]
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    for r in rounds:
        r.finish(sampler)

    if args.trace:
        import tracing

        _, traced, untraced = rounds
        metrics = tracing.layer_metrics(rec, traced, untraced)
        units = {name: tracing.LAYER_SPEC[name][0] for name in metrics}
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        rec.write(spans)
        print(f"  API time traced {traced.total('raw'):.3f} s, untraced "
              f"{untraced.total('raw'):.3f} s; {len(rec.spans)} spans -> "
              f"{spans.relative_to(ROOT)}")
        for name, value in metrics.items():
            _print_metric(name, value, *tracing.LAYER_SPEC[name])
    else:
        metrics, report = end_to_end(args.workload, rounds, peak)
        units = {name: END_TO_END[name][0] for name in metrics}
        print(f"  rounds={len(rounds)}")
        for name, value in metrics.items():
            _print_metric(name, value, *END_TO_END[name])
        for name, (value, note) in report.items():
            _print_metric(name, value, *REPORT_ONLY[name], note)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        for err in r.errors:
            print("  FAILED: " + err.strip().replace("\n", "\n    "))
    correct = failed == 0
    print(f"  correct={correct} attempted={attempted} failed={failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


def _round(args, workloads, rnd: int, **kw):
    inputs = workloads.make_inputs(args.workload, args.seed, rnd, args.size)
    gc.collect()
    return workloads.run_round(inputs, scratch=SCRATCH, corrupt=args.corrupt_reference, **kw)


def _traced(args, workloads):
    """Warm-up, traced and untraced rounds on round 0's inputs; the
    overhead compares the last two, both warm."""
    import tracing

    warmup = _round(args, workloads, 0)
    rec = tracing.Recorder()
    with tracing.Installed(rec):
        traced = _round(args, workloads, 0, hooks=rec)
    untraced = _round(args, workloads, 0)
    return [warmup, traced, untraced], rec


if __name__ == "__main__":
    sys.exit(main())
