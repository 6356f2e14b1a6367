"""Command-line interface: ``repro-ecfrm``.

Subcommands
-----------
* ``layout``  — render a code's EC-FRM stripe layout and group structure;
* ``figures`` — regenerate the paper's layout figures (1-7) as text;
* ``bench``   — run a measured figure (8a/8b/9a/9b/9c/9d) and print the
  paper-style table plus headline improvement lines;
* ``codes``   — list the Table I codes and their properties;
* ``demo``    — end-to-end store demo: write, fail a disk, degraded read;
* ``serve``   — concurrent read-service demo with plan-cache metrics;
* ``faults``  — fault-injection demo: self-healing reads under a seeded
  fault schedule (crash, outage, latent sector, bit rot, straggler);
* ``trace``   — traced read run: per-request spans to JSONL, per-stage
  latency breakdown to JSON, Prometheus-style metrics exposition;
* ``migrate`` — online layout migration: ``start`` a throttled
  standard/rotated → EC-FRM conversion with foreground reads interleaved
  (optionally crashing mid-way), ``status`` a journal, ``resume`` a
  crashed run from its write-ahead journal;
* ``cluster`` — sharded multi-volume demo: scatter-gather reads across
  shards (optionally degraded on one shard, optionally under a Zipf
  skew), per-shard load table with the cluster imbalance stat, and an
  optional hash-ring rebalance onto a freshly added shard;
* ``pipeline`` — open-loop event-loop scheduler demo: timestamped
  arrivals through admission control, per-disk FCFS queues, request
  coalescing and hedged sub-reads racing reconstruction against a
  straggler, with the p50/p99/p999 latency table.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .codes import parse_code_spec
from .disks.presets import DISK_PRESETS
from .frm import FRMCode, render_geometry, render_group_membership
from .harness import ExperimentConfig, render_improvements
from .harness.paperfigs import (
    ALL_TEXT_FIGURES,
    figure8a,
    figure8b,
    figure9a,
    figure9b,
    figure9c,
    figure9d,
)
from .store import BlockStore, ObjectStore

__all__ = ["main", "build_parser"]

_MEASURED_FIGURES = {
    "8a": figure8a,
    "8b": figure8b,
    "9a": figure9a,
    "9b": figure9b,
    "9c": figure9c,
    "9d": figure9d,
}

#: ``recover`` positional values that run an online recovery-plane
#: scenario instead of the offline XOR-plan calculation.
_RECOVERY_SCENARIOS = (
    "crash",
    "crash-during-rebuild",
    "spare-exhaustion",
    "flapping",
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-ecfrm",
        description="EC-FRM (ICPP 2015) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_layout = sub.add_parser("layout", help="render an EC-FRM stripe layout")
    p_layout.add_argument("code", help="code spec, e.g. rs-6-3 or lrc-6-2-2")
    p_layout.add_argument(
        "--style", choices=("group", "grid"), default="group", help="slot label style"
    )
    p_layout.add_argument(
        "--groups", action="store_true", help="also list every group's members"
    )

    p_fig = sub.add_parser("figures", help="regenerate paper layout figures 1-7")
    p_fig.add_argument(
        "which",
        nargs="*",
        default=["all"],
        help="figure ids (fig1..fig7) or 'all'",
    )

    p_bench = sub.add_parser("bench", help="run a measured paper figure")
    p_bench.add_argument("figure", choices=sorted(_MEASURED_FIGURES), help="figure id")
    p_bench.add_argument("--normal-trials", type=int, default=2000)
    p_bench.add_argument("--degraded-trials", type=int, default=5000)
    p_bench.add_argument("--element-size", type=int, default=1024 * 1024)
    p_bench.add_argument(
        "--disk", choices=sorted(DISK_PRESETS), default="savvio-10k3"
    )
    p_bench.add_argument("--seed", type=int, default=2015)

    sub.add_parser("codes", help="list the paper's Table I codes")

    p_demo = sub.add_parser("demo", help="end-to-end degraded-read demo")
    p_demo.add_argument("--code", default="lrc-6-2-2")
    p_demo.add_argument("--form", default="ec-frm")
    p_demo.add_argument("--fail-disk", type=int, default=1)

    p_rec = sub.add_parser(
        "recover",
        help="recovery I/O plans for XOR array codes, or an online "
        "recovery-plane scenario",
    )
    p_rec.add_argument(
        "code",
        help="array code spec (rdp-<p>, evenodd-<p>, xcode-<p>, "
        "weaver-<n>-<t>) for the plan calculation, or an orchestrator "
        f"scenario: {', '.join(_RECOVERY_SCENARIOS)}",
    )
    p_rec.add_argument("--disk", type=int, default=0, help="failed disk to rebuild")
    p_rec.add_argument(
        "--ec-code", default="rs-4-2", help="store code for scenario runs"
    )
    p_rec.add_argument("--rows", type=int, default=24, help="stripes to write")
    p_rec.add_argument("--element-size", type=int, default=512)
    p_rec.add_argument("--unit-rows", type=int, default=4, help="rows per rebuild window")
    p_rec.add_argument("--spares", type=int, default=1, help="hot-spare inventory")
    p_rec.add_argument(
        "--budget", type=int, default=None,
        help="repair tokens per step (default: stock AIMD throttle)",
    )
    p_rec.add_argument("--seed", type=int, default=2015)
    p_rec.add_argument(
        "--journal-dir", default=None,
        help="rebuild WAL directory (default: a fresh temp dir)",
    )
    p_rec.add_argument(
        "--topology", default=None,
        help="rack topology for scenario runs: 'flat', 'racks:R', or a "
        "comma list of rack ids per disk — rebuilds then stage through "
        "minimum-transfer repair plans and report net.* traffic",
    )

    p_reb = sub.add_parser("rebuild", help="whole-disk rebuild timing across forms")
    p_reb.add_argument("--code", default="lrc-6-2-2")
    p_reb.add_argument("--rows", type=int, default=120)
    p_reb.add_argument("--element-size", type=int, default=1024 * 1024)

    p_scrub = sub.add_parser("scrub", help="silent-corruption scrub demo")
    p_scrub.add_argument("--code", default="lrc-6-2-2")
    p_scrub.add_argument("--form", default="ec-frm")

    p_an = sub.add_parser(
        "analyze", help="exact analytical model: max-load distribution and speeds"
    )
    p_an.add_argument("code", help="code spec, e.g. rs-6-3")
    p_an.add_argument("--size", type=int, default=8, help="read size in elements")

    p_sweep = sub.add_parser(
        "sweep", help="regenerate all measured figures into CSV/JSON files"
    )
    p_sweep.add_argument("--out", default="results", help="output directory")
    p_sweep.add_argument("--normal-trials", type=int, default=2000)
    p_sweep.add_argument("--degraded-trials", type=int, default=5000)
    p_sweep.add_argument(
        "--format", choices=("csv", "json", "both"), default="both"
    )

    p_serve = sub.add_parser(
        "serve", help="concurrent read-service demo with plan-cache metrics"
    )
    p_serve.add_argument("--code", default="rs-6-3")
    p_serve.add_argument("--form", default="ec-frm")
    p_serve.add_argument("--element-size", type=int, default=4096)
    p_serve.add_argument("--requests", type=int, default=200)
    p_serve.add_argument("--queue-depth", type=int, default=8)
    p_serve.add_argument("--fail-disk", type=int, default=None)
    p_serve.add_argument("--seed", type=int, default=2015)

    p_flt = sub.add_parser(
        "faults", help="fault-injection demo: self-healing reads under a schedule"
    )
    p_flt.add_argument(
        "scenario",
        nargs="?",
        default="mixed",
        choices=("crash", "outage", "latent", "bitrot", "straggler", "mixed"),
        help="fault scenario preset (default: mixed, seeded-random)",
    )
    p_flt.add_argument("--code", default="rs-6-3")
    p_flt.add_argument("--form", default="ec-frm")
    p_flt.add_argument("--element-size", type=int, default=1024)
    p_flt.add_argument("--requests", type=int, default=48)
    p_flt.add_argument("--queue-depth", type=int, default=8)
    p_flt.add_argument("--seed", type=int, default=2015)

    p_tr = sub.add_parser(
        "trace", help="traced read run: span dump, latency breakdown, metrics"
    )
    p_tr.add_argument(
        "scenario",
        nargs="?",
        default="clean",
        choices=(
            "clean", "crash", "outage", "latent", "bitrot", "straggler", "mixed"
        ),
        help="fault scenario to trace under (default: clean, no faults)",
    )
    p_tr.add_argument("--code", default="rs-6-3")
    p_tr.add_argument("--form", default="ec-frm")
    p_tr.add_argument("--element-size", type=int, default=1024)
    p_tr.add_argument("--requests", type=int, default=48)
    p_tr.add_argument("--queue-depth", type=int, default=8)
    p_tr.add_argument("--seed", type=int, default=2015)
    p_tr.add_argument("--out", default="results", help="output directory")
    p_tr.add_argument(
        "--prometheus",
        action="store_true",
        help="also print the Prometheus-style text exposition",
    )

    p_mig = sub.add_parser(
        "migrate", help="online layout migration: start / status / resume"
    )
    mig_sub = p_mig.add_subparsers(dest="action", required=True)
    m_start = mig_sub.add_parser(
        "start", help="migrate a seeded live volume between placement forms"
    )
    m_start.add_argument("--code", default="rs-6-3")
    m_start.add_argument(
        "--source", default="standard", choices=("standard", "rotated", "ec-frm")
    )
    m_start.add_argument(
        "--target", default="ec-frm", choices=("standard", "rotated", "ec-frm")
    )
    m_start.add_argument("--rows", type=int, default=24)
    m_start.add_argument("--element-size", type=int, default=1024)
    m_start.add_argument("--seed", type=int, default=2015)
    m_start.add_argument(
        "--journal",
        default="results/migration_journal.jsonl",
        help="write-ahead journal path (must not exist yet)",
    )
    m_start.add_argument(
        "--budget",
        type=int,
        default=None,
        help="element ops per mover step (default: unthrottled)",
    )
    m_start.add_argument("--requests", type=int, default=4,
                         help="foreground reads interleaved per mover step")
    m_start.add_argument("--queue-depth", type=int, default=4)
    m_start.add_argument(
        "--crash-after",
        choices=("stage", "mid-write", "commit"),
        default=None,
        help="simulate a crash at this WAL point of --crash-at-window",
    )
    m_start.add_argument("--crash-at-window", type=int, default=0)
    m_status = mig_sub.add_parser("status", help="inspect a migration journal")
    m_status.add_argument(
        "--journal", default="results/migration_journal.jsonl"
    )
    m_resume = mig_sub.add_parser(
        "resume", help="resume a crashed migration from its journal"
    )
    m_resume.add_argument(
        "--journal", default="results/migration_journal.jsonl"
    )
    m_resume.add_argument("--budget", type=int, default=None)
    m_resume.add_argument("--requests", type=int, default=4)
    m_resume.add_argument("--queue-depth", type=int, default=4)

    p_cl = sub.add_parser(
        "cluster", help="sharded multi-volume cluster demo"
    )
    p_cl.add_argument("--code", default="rs-6-3")
    p_cl.add_argument("--shards", type=int, default=3)
    p_cl.add_argument(
        "--map", choices=("hash-ring", "round-robin", "d3"), default="hash-ring"
    )
    p_cl.add_argument("--stripes", type=int, default=48)
    p_cl.add_argument("--element-size", type=int, default=4096)
    p_cl.add_argument("--requests", type=int, default=100)
    p_cl.add_argument("--queue-depth", type=int, default=4)
    p_cl.add_argument(
        "--zipf",
        type=float,
        default=None,
        help="Zipf exponent (>1) for a skewed workload; uniform if omitted",
    )
    p_cl.add_argument(
        "--fail-disk",
        default=None,
        metavar="SHARD:DISK",
        help="fail one disk of one shard before reading (degraded demo)",
    )
    p_cl.add_argument(
        "--add-shard",
        action="store_true",
        help="after reading, rebalance onto a new shard and re-verify",
    )
    p_cl.add_argument(
        "--fail-shard",
        type=int,
        default=None,
        metavar="SHARD",
        help="after reading, drain this shard onto the survivors through "
        "the recovery map (scrub-on-land verified) and re-verify reads",
    )
    p_cl.add_argument(
        "--cache",
        type=int,
        default=None,
        metavar="STRIPES",
        help="enable the hot-tier replica cache with this many resident "
        "stripes (hits bypass the disk arrays entirely)",
    )
    p_cl.add_argument(
        "--cache-admit",
        type=int,
        default=2,
        help="accesses a stripe must earn before the tier admits it",
    )
    p_cl.add_argument(
        "--topology", default=None,
        help="rack topology for every shard's array: 'flat', 'racks:R', "
        "or a comma list of rack ids per disk — degraded reads then use "
        "minimum-transfer repair plans and the net.* rollup is printed",
    )
    p_cl.add_argument("--seed", type=int, default=2015)

    p_pipe = sub.add_parser(
        "pipeline",
        help="open-loop pipeline demo: hedged reads under admission control",
    )
    p_pipe.add_argument("--code", default="rs-6-3")
    p_pipe.add_argument("--form", default="ec-frm")
    p_pipe.add_argument("--element-size", type=int, default=4096)
    p_pipe.add_argument("--requests", type=int, default=2000)
    p_pipe.add_argument(
        "--rate", type=float, default=120.0, help="arrival rate, requests/s"
    )
    p_pipe.add_argument(
        "--zipf",
        type=float,
        default=None,
        help="Zipf exponent (>1) for hot-prefix offsets; uniform if omitted",
    )
    p_pipe.add_argument(
        "--straggle-disk",
        type=int,
        default=None,
        help="slow one disk by --straggle-factor before the run",
    )
    p_pipe.add_argument("--straggle-factor", type=float, default=6.0)
    p_pipe.add_argument(
        "--no-hedge", action="store_true", help="disable hedged sub-reads"
    )
    p_pipe.add_argument("--hedge-multiplier", type=float, default=2.0)
    p_pipe.add_argument("--max-inflight", type=int, default=64)
    p_pipe.add_argument("--queue-limit", type=int, default=1024)
    p_pipe.add_argument(
        "--materialize",
        action="store_true",
        help="fetch and verify real payloads (slower than timing-only)",
    )
    p_pipe.add_argument(
        "--shards", type=int, default=1, help="cluster shards to spread over"
    )
    p_pipe.add_argument(
        "--cache",
        type=int,
        default=None,
        metavar="STRIPES",
        help="enable the hot-tier replica cache with this many resident "
        "stripes (hits resolve at arrival, before admission and hedging)",
    )
    p_pipe.add_argument("--seed", type=int, default=2015)

    p_rel = sub.add_parser(
        "mttdl", help="mean time to data loss from measured rebuild speed"
    )
    p_rel.add_argument("--code", default="lrc-6-2-2")
    p_rel.add_argument("--disk-mttf-hours", type=float, default=1.0e6)
    p_rel.add_argument("--rows", type=int, default=120)
    p_rel.add_argument("--lse-prob", type=float, default=0.0)
    return parser


def _cmd_layout(args: argparse.Namespace) -> int:
    code = parse_code_spec(args.code)
    frm = FRMCode(code)
    g = frm.geometry
    print(frm.describe())
    print(render_geometry(g, style=args.style))
    if args.groups:
        for i in range(g.num_groups):
            print(render_group_membership(g, i))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    which = args.which
    if which == ["all"] or which == []:
        which = list(ALL_TEXT_FIGURES)
    for fig in which:
        if fig not in ALL_TEXT_FIGURES:
            print(f"unknown figure {fig!r}; known: {', '.join(ALL_TEXT_FIGURES)}", file=sys.stderr)
            return 2
        print(ALL_TEXT_FIGURES[fig]())
        print()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        element_size=args.element_size,
        disk_model=DISK_PRESETS[args.disk],
        normal_trials=args.normal_trials,
        degraded_trials=args.degraded_trials,
        seed=args.seed,
    )
    table = _MEASURED_FIGURES[args.figure](config)
    print(table.render(precision=3 if args.figure in ("9a", "9b") else 1))
    subject = next(name for name in table.series if name.startswith("EC-FRM"))
    baselines = {name: name for name in table.series if name != subject}
    print()
    print(render_improvements(table, subject, baselines))
    return 0


def _cmd_codes(_: argparse.Namespace) -> int:
    from .harness.experiment import paper_codes

    for spec, code in paper_codes().items():
        frm = FRMCode(code)
        g = frm.geometry
        print(
            f"{spec:12s} n={code.n:2d} k={code.k:2d} f={code.fault_tolerance} "
            f"overhead={code.storage_overhead:.3f} "
            f"ec-frm stripe={g.rows}x{g.n} groups={g.num_groups}"
        )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    code = parse_code_spec(args.code)
    bs = BlockStore(code, args.form, element_size=4096)
    store = ObjectStore(bs)
    rng = np.random.default_rng(0)
    blob = rng.integers(0, 256, size=200_000, dtype=np.uint8).tobytes()
    store.put("demo-object", blob)
    print(f"stored 200000 bytes via {bs.placement.describe()}")

    data, outcome = bs.read_with_outcome(0, 100_000)
    print(
        f"normal read : {outcome.speed_mib_s:8.1f} MiB/s  "
        f"(max disk load {outcome.plan.max_disk_load})"
    )
    bs.array.fail_disk(args.fail_disk)
    data2, outcome2 = bs.read_with_outcome(0, 100_000)
    ok = data2 == data == blob[:100_000]
    print(
        f"degraded read (disk {args.fail_disk} down): {outcome2.speed_mib_s:8.1f} MiB/s  "
        f"cost={outcome2.plan.read_cost:.3f}  byte-exact: {'OK' if ok else 'FAILED'}"
    )
    return 0 if ok else 1


def _parse_array_code(spec: str):
    """Parse the grid-code specs the recover command accepts."""
    from .codes import make_evenodd, make_rdp, make_weaver, make_xcode

    parts = spec.strip().lower().split("-")
    factories = {"rdp": (make_rdp, 1), "evenodd": (make_evenodd, 1),
                 "xcode": (make_xcode, 1), "weaver": (make_weaver, 2)}
    if parts[0] not in factories:
        raise ValueError(
            f"unknown array code {spec!r}; known: {sorted(factories)}"
        )
    factory, arity = factories[parts[0]]
    args = [int(a) for a in parts[1:]]
    if len(args) != arity:
        raise ValueError(f"{parts[0]} takes {arity} parameter(s)")
    return factory(*args)


def _cmd_recover(args: argparse.Namespace) -> int:
    if args.code in _RECOVERY_SCENARIOS:
        return _recover_scenario(args)
    from .recovery import conventional_recovery_plan, optimal_recovery_plan

    code = _parse_array_code(args.code)
    conv = conventional_recovery_plan(code, args.disk)
    opt = optimal_recovery_plan(code, args.disk)
    print(f"{code.describe()} — rebuild disk {args.disk}")
    print(f"conventional: {conv.io_count} element reads")
    print(f"optimal     : {opt.io_count} element reads "
          f"({(1 - opt.io_count / conv.io_count) * 100:.1f}% saved)")
    loads = opt.per_disk_loads(code)
    print("optimal per-disk reads: "
          + " ".join(f"d{d}:{loads.get(d, 0)}" for d in range(code.disks)))
    return 0


def _recovery_store(args: argparse.Namespace, *, recovery=None):
    """Seeded single-shard EC-FRM cluster for the recovery scenarios.

    Constructed through :func:`repro.open_cluster` (the one documented
    construction path); scenarios drive the lone shard's store and
    orchestrator directly.
    """
    from . import open_cluster

    cluster = open_cluster(
        args.ec_code,
        shards=1,
        element_size=args.element_size,
        recovery=recovery,
        topology=getattr(args, "topology", None),
    )
    if cluster.topology is not None:
        print(f"topology: {cluster.topology.describe()}")
    rng = np.random.default_rng(args.seed)
    data = rng.integers(
        0, 256, size=args.rows * cluster.stripe_bytes, dtype=np.uint8
    ).tobytes()
    cluster.append(data)
    cluster.flush()
    return cluster, cluster.volumes[0].store, data


def _recovery_verdict(bs, data) -> int:
    from .store import Scrubber

    ok = bs.read(0, len(data)) == data
    clean = Scrubber(bs).scrub().clean
    print(f"byte-exact after recovery: {'OK' if ok else 'FAILED'}; "
          f"redundancy restored (clean scrub): {'OK' if clean else 'FAILED'}")
    if getattr(bs, "topology", None) is not None:
        ns = bs.net_snapshot()
        print(
            f"net: {ns['bytes_moved']} repair bytes moved "
            f"({ns['cross_rack_bytes']} cross-rack, "
            f"{ns['intra_rack_bytes']} in-rack) over {ns['repair_sets']} "
            f"repair sets, mean set size {ns['repair_set_size']:.2f}"
        )
    return 0 if ok and clean else 1


def _recover_scenario(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from .obs import MetricsRegistry
    from .recovery import (
        DiskRebuild,
        RecoveryCrash,
        RepairThrottle,
        resume_disk_rebuild,
    )

    journal_dir = Path(
        args.journal_dir
        if args.journal_dir is not None
        else tempfile.mkdtemp(prefix="ecfrm-recover-")
    )
    d = args.disk

    if args.code == "crash-during-rebuild":
        # drive one rebuild by hand so the crash hook is visible end to end
        _, bs, data = _recovery_store(args)
        registry = MetricsRegistry()
        throttle = (
            RepairThrottle(budget_per_step=args.budget)
            if args.budget is not None
            else None
        )
        print(
            f"{bs.placement.describe()}: {args.rows} stripes, "
            f"scenario {args.code!r}, journal WALs in {journal_dir}"
        )
        bs.array.fail_disk(d)
        journal = journal_dir / f"rebuild-d{d}.wal"
        journal.parent.mkdir(parents=True, exist_ok=True)
        rb = DiskRebuild(
            bs, d, journal=journal, throttle=throttle,
            unit_rows=args.unit_rows, registry=registry,
            crash_after="reconstruct", crash_at_window=0,
        )
        try:
            rb.run()
        except RecoveryCrash as crash:
            print(f"CRASH: {crash}")
            print(f"journal preserved at {journal}; resuming...")
        rb = resume_disk_rebuild(bs, journal, throttle=throttle)
        steps = rb.run()
        print(
            f"resumed rebuild finished in {steps} steps: "
            f"{rb.windows_committed}/{rb.num_windows} windows committed "
            f"({rb.resumes} resume)"
        )
        return _recovery_verdict(bs, data)

    cluster, bs, data = _recovery_store(
        args,
        recovery={
            "journal_dir": journal_dir,
            "spares": args.spares,
            "unit_rows": args.unit_rows,
            "budget_per_step": args.budget,
        },
    )
    orch = cluster.orchestrators[0]
    print(
        f"{bs.placement.describe()}: {args.rows} stripes, "
        f"scenario {args.code!r}, journal WALs in {journal_dir}"
    )

    if args.code == "crash":
        bs.array.fail_disk(d)
        ticks = orch.run_until_idle()
        print(
            f"disk {d} confirmed failed, spare bound, rebuilt online in "
            f"{ticks} ticks ({orch.rebuilds_completed} rebuild complete)"
        )

    elif args.code == "spare-exhaustion":
        others = [x for x in range(len(bs.array)) if x != d]
        second = others[0]
        bs.array.fail_disk(d)
        bs.array.fail_disk(second)
        orch.run_until_idle()
        print(
            f"disks {d} and {second} failed with {args.spares} spare(s): "
            f"{orch.rebuilds_completed} rebuilt, queue {orch.queued_disks} "
            f"degraded-but-live (spare waits: {orch.spare_waits})"
        )
        orch.spares.restock(1)
        ticks = orch.run_until_idle()
        print(f"restocked one spare: queue drained in {ticks} more ticks")

    else:  # flapping
        bs.array.fail_disk(d)
        orch.tick()  # first down poll: suspected, not confirmed
        bs.array.restore_disk(d, wipe=False)  # blip over, contents intact
        orch.run_until_idle()
        print(
            f"disk {d} blipped for one poll: damped as a flap "
            f"(flaps={orch.detector.flaps}, rebuilds="
            f"{orch.rebuilds_started}) — no rebuild triggered"
        )
        bs.array.fail_disk(d)  # now fail it for real
        ticks = orch.run_until_idle()
        print(
            f"disk {d} down past the confirmation window: rebuilt in "
            f"{ticks} ticks ({orch.rebuilds_completed} rebuild complete)"
        )

    snap = orch.stats_snapshot()
    print(
        "recovery: "
        f"rebuilds={snap['rebuilds_completed']} "
        f"spare_waits={snap['spare_waits']} "
        f"throttle_backoffs={snap['throttle']['backoffs']} "
        f"spares_left={orch.spares.available}"
    )
    return _recovery_verdict(bs, data)


def _cmd_rebuild(args: argparse.Namespace) -> int:
    from .disks.presets import SAVVIO_10K3
    from .engine import plan_disk_rebuild, rebuild_time_s
    from .layout import make_placement

    code = parse_code_spec(args.code)
    print(f"rebuild timing, {code.describe()}, {args.rows} rows, "
          f"{args.element_size // 1024} KiB elements:")
    for form in ("standard", "rotated", "ec-frm"):
        placement = make_placement(form, code)
        naive = plan_disk_rebuild(placement, 0, args.rows)
        opt = plan_disk_rebuild(placement, 0, args.rows, optimize=True)
        t_naive = rebuild_time_s(naive, SAVVIO_10K3, args.element_size)
        t_opt = rebuild_time_s(opt, SAVVIO_10K3, args.element_size)
        print(f"  {form:9s}: naive {t_naive:6.2f}s (bottleneck {naive.max_disk_load}) "
              f"| load-aware {t_opt:6.2f}s (bottleneck {opt.max_disk_load})")
    return 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    from .store import BlockStore, Scrubber

    code = parse_code_spec(args.code)
    bs = BlockStore(code, args.form, element_size=4096)
    rng = np.random.default_rng(0)
    bs.append(rng.integers(0, 256, size=8 * bs.row_bytes, dtype=np.uint8).tobytes())
    scrubber = Scrubber(bs)
    scrubber.inject_corruption(2, 1, rng)
    scrubber.inject_corruption(5, code.n - 1, rng)
    print(f"injected corruption into rows 2 and 5 of {bs.placement.describe()}")
    report, repairs = scrubber.scrub_and_repair()
    print(f"scrub: {report.rows_checked} rows checked, "
          f"corrupt rows {report.corrupt_rows}")
    for row, element in repairs:
        print(f"  repaired row {row}, element {element}")
    final = scrubber.scrub()
    print(f"post-repair scrub clean: {final.clean}")
    return 0 if final.clean else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import (
        exact_max_load_distribution,
        predict_normal_speed,
        speed_ratio_bound,
    )
    from .disks.presets import SAVVIO_10K3
    from .layout import make_placement

    code = parse_code_spec(args.code)
    print(f"exact analysis, {code.describe()}, read size {args.size} elements:")
    for form in ("standard", "rotated", "ec-frm"):
        placement = make_placement(form, code)
        dist = exact_max_load_distribution(placement, args.size)
        pred = predict_normal_speed(placement, SAVVIO_10K3, 1 << 20)
        dist_str = " ".join(f"P(max={m})={p:.3f}" for m, p in dist.items())
        print(f"  {form:9s}: {dist_str}  | workload-mean speed "
              f"{pred.mean_speed_mib_s:.1f} MiB/s")
    print(f"closed-form EC-FRM/standard ratio at L={args.size}: "
          f"{speed_ratio_bound(code.k, code.n, args.size):.3f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .harness.export import export_all_figures

    config = ExperimentConfig(
        normal_trials=args.normal_trials, degraded_trials=args.degraded_trials
    )
    formats = ("csv", "json") if args.format == "both" else (args.format,)
    written = export_all_figures(args.out, config, formats=formats)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .engine import ReadService
    from .harness import service_report

    code = parse_code_spec(args.code)
    bs = BlockStore(code, args.form, element_size=args.element_size)
    rng = np.random.default_rng(args.seed)
    rows = 32
    data = rng.integers(0, 256, size=rows * bs.row_bytes, dtype=np.uint8).tobytes()
    bs.append(data)
    if args.fail_disk is not None:
        bs.array.fail_disk(args.fail_disk)
        print(f"disk {args.fail_disk} failed — serving degraded")

    svc = ReadService(bs)
    span = 4 * args.element_size
    ranges = [
        (int(rng.integers(0, bs.user_bytes - span)), span)
        for _ in range(args.requests)
    ]
    cold = svc.submit(ranges, queue_depth=args.queue_depth)
    warm = svc.submit(ranges, queue_depth=args.queue_depth)
    ok = cold.payloads == warm.payloads == [data[o : o + n] for o, n in ranges]
    print(f"{bs.placement.describe()}, queue depth {args.queue_depth}")
    print(
        f"cold pass: {cold.throughput.throughput_mib_s:8.1f} MiB/s  "
        f"({cold.cache_misses} plans built)"
    )
    print(
        f"warm pass: {warm.throughput.throughput_mib_s:8.1f} MiB/s  "
        f"({warm.cache_hits} cache hits)"
    )
    print(f"payloads byte-exact: {'OK' if ok else 'FAILED'}")
    print()
    print(service_report(svc))
    return 0 if ok else 1


def _fault_schedule(scenario: str, code, seed: int):
    """Build the preset schedule for one ``faults``/``trace`` scenario."""
    from .faults import FaultEvent, FaultKind, FaultSchedule

    if scenario == "clean":
        return FaultSchedule.scripted([])
    scripted = {
        "crash": [FaultEvent(at_op=5, kind=FaultKind.CRASH, disk=1)],
        "outage": [
            FaultEvent(
                at_op=5, kind=FaultKind.TRANSIENT_OUTAGE, disk=2, duration_ops=6
            )
        ],
        "latent": [
            FaultEvent(at_op=3, kind=FaultKind.LATENT_SECTOR, disk=0),
            FaultEvent(at_op=9, kind=FaultKind.LATENT_SECTOR, disk=4),
        ],
        "bitrot": [
            FaultEvent(at_op=3, kind=FaultKind.BIT_ROT, disk=3),
            FaultEvent(at_op=7, kind=FaultKind.BIT_ROT, disk=5),
        ],
        "straggler": [
            FaultEvent(at_op=2, kind=FaultKind.STRAGGLER, disk=1, factor=4.0)
        ],
    }
    if scenario in scripted:
        return FaultSchedule.scripted(scripted[scenario])
    return FaultSchedule.random(
        seed,
        ops=40,
        num_disks=code.n,
        crash_prob=0.02,
        outage_prob=0.02,
        latent_prob=0.05,
        bitrot_prob=0.05,
        straggler_prob=0.02,
        max_disk_failures=code.fault_tolerance - 1 or 1,
    )


def _cmd_faults(args: argparse.Namespace) -> int:
    from .engine import ReadService
    from .faults import FaultInjector
    from .harness import service_report

    code = parse_code_spec(args.code)
    bs = BlockStore(code, args.form, element_size=args.element_size)
    rng = np.random.default_rng(args.seed)
    rows = 16
    data = rng.integers(0, 256, size=rows * bs.row_bytes, dtype=np.uint8).tobytes()
    bs.append(data)

    schedule = _fault_schedule(args.scenario, code, args.seed)
    print(
        f"{bs.placement.describe()}, scenario {args.scenario!r} "
        f"({len(schedule)} scheduled events, seed {args.seed})"
    )
    injector = FaultInjector(bs.array, schedule, seed=args.seed).attach()

    svc = ReadService(bs)
    span = 4 * args.element_size
    ranges = [
        (int(rng.integers(0, bs.user_bytes - span)), span)
        for _ in range(args.requests)
    ]
    result = svc.submit(ranges, queue_depth=args.queue_depth)
    injector.detach()

    ok = result.payloads == [data[o : o + n] for o, n in ranges]
    for op, event in injector.fired:
        where = f" slot {event.slot}" if event.slot is not None else ""
        print(f"  op {op:3d}: {event.kind.value} on disk {event.disk}{where}")
    for op, event in injector.skipped:
        print(f"  op {op:3d}: {event.kind.value} on disk {event.disk} (skipped)")
    print(f"payloads byte-exact under faults: {'OK' if ok else 'FAILED'}")
    print()
    print(service_report(svc))
    return 0 if ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .engine import ReadService
    from .faults import FaultInjector
    from .harness import service_report
    from .obs import (
        MetricsRegistry,
        Tracer,
        latency_breakdown,
        render_latency_breakdown,
        to_prometheus,
        write_trace_jsonl,
    )

    code = parse_code_spec(args.code)
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry()
    bs = BlockStore(
        code, args.form, element_size=args.element_size,
        tracer=tracer, registry=registry,
    )
    rng = np.random.default_rng(args.seed)
    rows = 16
    data = rng.integers(0, 256, size=rows * bs.row_bytes, dtype=np.uint8).tobytes()
    bs.append(data)

    schedule = _fault_schedule(args.scenario, code, args.seed)
    injector = (
        FaultInjector(bs.array, schedule, seed=args.seed)
        .register_metrics(registry)
        .attach()
    )
    svc = ReadService(bs)
    span = 4 * args.element_size
    ranges = [
        (int(rng.integers(0, bs.user_bytes - span)), span)
        for _ in range(args.requests)
    ]
    result = svc.submit(ranges, queue_depth=args.queue_depth)
    injector.detach()
    ok = result.payloads == [data[o : o + n] for o, n in ranges]

    out = Path(args.out)
    trace_path = out / f"trace_{args.scenario}.jsonl"
    write_trace_jsonl(tracer, trace_path)
    nspans = len(tracer.spans)
    breakdown = latency_breakdown(tracer)
    breakdown_path = out / "latency_breakdown.json"
    breakdown_path.parent.mkdir(parents=True, exist_ok=True)
    breakdown_path.write_text(json.dumps(breakdown, indent=2, sort_keys=True))

    print(
        f"{bs.placement.describe()}, scenario {args.scenario!r}, "
        f"{args.requests} requests at queue depth {args.queue_depth}"
    )
    if injector.fired:
        for op, event in injector.fired:
            print(f"  op {op:3d}: {event.kind.value} on disk {event.disk}")
    print(f"payloads byte-exact: {'OK' if ok else 'FAILED'}")
    print(f"wrote {nspans} spans to {trace_path}")
    print(f"wrote per-stage breakdown to {breakdown_path} "
          f"(coverage {breakdown['consistency']['coverage']:.2f})")
    print()
    print(render_latency_breakdown(breakdown["stages"]))
    print()
    print(service_report(svc))
    if args.prometheus:
        print()
        print(to_prometheus(svc.metrics()))
    return 0 if ok else 1


def _seeded_migration_store(
    spec: str, form: str, rows: int, element_size: int, seed: int
):
    """Deterministically (re)build the migrate demo's store and payload.

    ``start`` and ``resume`` run in different processes over an in-memory
    disk array, so the array's contents are re-derived from (spec, form,
    rows, element size, seed) — all persisted in the journal's plan
    record — and the committed moves are then re-applied from the WAL.
    """
    code = parse_code_spec(spec)
    bs = BlockStore(code, form, element_size=element_size)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=rows * bs.row_bytes, dtype=np.uint8).tobytes()
    bs.append(data)
    return bs, data, rng


def _drive_migration(mig, svc, data, requests: int, queue_depth: int, rng) -> bool:
    """Step the mover to completion with foreground reads interleaved.

    Returns False if any foreground read came back byte-incorrect.
    """
    ok = True
    store = svc.store
    while mig.step():
        if requests > 0 and store.user_bytes > store.element_size:
            span = min(4 * store.element_size, store.user_bytes)
            ranges = [
                (int(rng.integers(0, store.user_bytes - span + 1)), span)
                for _ in range(requests)
            ]
            result = svc.submit(ranges, queue_depth=queue_depth)
            ok &= result.payloads == [data[o : o + n] for o, n in ranges]
    return ok


def _print_migration_summary(mig, store, source_form: str) -> None:
    from .layout import make_placement

    stats = mig.stats_snapshot()
    print(
        f"migrated {stats['windows_done']}/{stats['windows_total']} windows "
        f"({stats['rows_moved']} rows, {stats['elements_moved']} elements, "
        f"{stats['bytes_moved']} bytes)"
    )
    print(
        f"throttle stalls {stats['throttle_stalls']}, resumes {stats['resumes']}, "
        f"cache invalidations {stats['cache_invalidations']}, "
        f"checkpoints {stats['checkpoints']} "
        f"(invariant {'OK' if stats['invariant_ok'] else 'VIOLATED'})"
    )
    src = make_placement(source_form, store.code)
    L = 2 * store.code.n
    print(
        f"max disk load for L={L} contiguous elements: "
        f"{src.max_disk_load(0, L)} ({source_form}) -> "
        f"{store.placement.max_disk_load(0, L)} ({store.placement.name})"
    )


def _cmd_migrate(args: argparse.Namespace) -> int:
    from .engine import ReadService
    from .migrate import (
        MigrationCrash,
        MigrationError,
        MigrationJournal,
        Migrator,
        resume_migration,
    )
    from .migrate.transfer import open_journal

    journal = MigrationJournal(args.journal)

    if args.action == "status":
        if not journal.exists():
            print(f"no journal at {journal.path}")
            return 2
        state = journal.load()
        ctx = state.context or {}
        print(f"journal {journal.path}: {state.records} records")
        print(
            f"  plan: {ctx.get('source')} -> {ctx.get('target')}, "
            f"{ctx.get('rows')} rows in {ctx.get('windows')} windows "
            f"of {ctx.get('unit_rows')} (code {ctx.get('code')})"
        )
        print(
            f"  committed {len(state.committed)}/{ctx.get('windows')} windows; "
            f"pending stage: "
            + (f"window {state.pending.window}" if state.pending else "none")
        )
        for cp in state.checkpoints[-3:]:
            print(
                f"  checkpoint: {cp.get('windows_done')}/{cp.get('windows_total')} "
                f"windows, invariant {'OK' if cp.get('invariant_ok') else 'VIOLATED'}"
            )
        print(f"  complete: {state.complete}")
        return 0

    if args.action == "start":
        if journal.exists():
            print(
                f"journal {journal.path} already exists; "
                "use 'migrate resume' or remove it",
                file=sys.stderr,
            )
            return 2
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        bs, data, rng = _seeded_migration_store(
            args.code, args.source, args.rows, args.element_size, args.seed
        )
        svc = ReadService(bs)
        mig = Migrator(
            bs,
            args.target,
            journal=journal,
            cache=svc.cache,
            registry=svc.registry,
            budget_per_step=args.budget,
            crash_after=args.crash_after,
            crash_at_window=args.crash_at_window,
            context_extra={"spec": args.code, "seed": args.seed},
        )
        print(
            f"migrating {bs.placement.describe()} "
            f"({mig.plan.num_windows} windows of {mig.plan.unit_rows} rows, "
            f"budget {args.budget or 'unthrottled'})"
        )
        try:
            ok = _drive_migration(
                mig, svc, data, args.requests, args.queue_depth, rng
            )
        except MigrationCrash as crash:
            print(f"CRASH: {crash}")
            print(f"journal preserved at {journal.path}; resume with:")
            print(f"  repro-ecfrm migrate resume --journal {journal.path}")
            return 0
        final_ok = bs.read(0, bs.user_bytes) == data
        _print_migration_summary(mig, bs, args.source)
        print(
            "foreground reads byte-exact during migration: "
            f"{'OK' if ok else 'FAILED'}; final stream: "
            f"{'OK' if final_ok else 'FAILED'}"
        )
        return 0 if ok and final_ok else 1

    # resume
    if not journal.exists():
        print(f"no journal at {journal.path}", file=sys.stderr)
        return 2
    try:
        _, state = open_journal(journal, "migration", MigrationError)
    except MigrationError as err:
        print(err, file=sys.stderr)
        return 2
    ctx = state.context
    bs, data, rng = _seeded_migration_store(
        ctx["spec"], ctx["source"], ctx["rows"], ctx["element_size"], ctx["seed"]
    )
    svc = ReadService(bs)
    mig = resume_migration(
        bs,
        journal,
        cache=svc.cache,
        registry=svc.registry,
        budget_per_step=args.budget,
        restage=True,
    )
    print(
        f"resumed from {journal.path}: {mig.windows_done}/{mig.plan.num_windows} "
        "windows already committed"
    )
    ok = _drive_migration(mig, svc, data, args.requests, args.queue_depth, rng)
    final_ok = bs.read(0, bs.user_bytes) == data
    _print_migration_summary(mig, bs, ctx["source"])
    print(
        "foreground reads byte-exact during migration: "
        f"{'OK' if ok else 'FAILED'}; final stream: "
        f"{'OK' if final_ok else 'FAILED'}"
    )
    return 0 if ok and final_ok else 1


def _cmd_cluster(args: argparse.Namespace) -> int:
    from . import open_cluster
    from .cache import CacheConfig
    from .workloads import ZipfReadWorkload

    cluster = open_cluster(
        args.code,
        shards=args.shards,
        map=args.map,
        element_size=args.element_size,
        map_seed=args.seed,
        cache=(
            CacheConfig(
                capacity_stripes=args.cache, admit_after=args.cache_admit
            )
            if args.cache
            else None
        ),
        topology=args.topology,
    )
    code = cluster.code
    rng = np.random.default_rng(args.seed)
    data = rng.integers(
        0, 256, size=args.stripes * cluster.stripe_bytes, dtype=np.uint8
    ).tobytes()
    cluster.append(data)
    print(
        f"{cluster.map.describe()}, {cluster.stripes_written} stripes of "
        f"{code.describe()} ({cluster.user_bytes} bytes)"
    )
    if cluster.topology is not None:
        print(f"topology: {cluster.topology.describe()}")

    if args.fail_disk is not None:
        try:
            shard_s, disk_s = args.fail_disk.split(":")
            shard, disk = int(shard_s), int(disk_s)
        except ValueError:
            print(
                f"--fail-disk wants SHARD:DISK, got {args.fail_disk!r}",
                file=sys.stderr,
            )
            return 2
        cluster.volumes[shard].store.array.fail_disk(disk)
        print(f"disk {disk} of shard {shard} failed — that shard serves degraded")

    span_elems = (2, 8)
    if args.zipf is not None:
        wl = ZipfReadWorkload(
            address_space=args.stripes * code.k,
            trials=args.requests,
            zipf_s=args.zipf,
            min_size=span_elems[0],
            max_size=span_elems[1],
            seed=args.seed,
        )
        ranges = [
            (r.start * args.element_size, r.count * args.element_size)
            for r in wl
        ]
    else:
        ranges = []
        for _ in range(args.requests):
            size = int(rng.integers(span_elems[0], span_elems[1] + 1))
            size *= args.element_size
            ranges.append((int(rng.integers(0, len(data) - size)), size))
    result = cluster.submit(ranges, queue_depth=args.queue_depth)
    ok = result.payloads == [data[o : o + n] for o, n in ranges]
    if args.cache:
        # second identical pass: hot stripes promoted by the first batch
        # now serve from the tier (a batch can't hit its own promotions)
        warm = cluster.submit(ranges, queue_depth=args.queue_depth)
        ok &= warm.payloads == [data[o : o + n] for o, n in ranges]

    rollup = cluster.metrics()
    snap = rollup["cluster"]
    print(f"\nmap load table: {cluster.map.describe()}")
    print(f"shard  stripes  sub-reads  busy s  rec-imb   failed disks")
    for sid, s in sorted(snap["per_shard"].items(), key=lambda kv: int(kv[0])):
        failed = ",".join(str(d) for d in s["failed_disks"]) or "-"
        rec = (
            f"{s['recovery_imbalance']:7.3f}"
            if s["recovery_imbalance"] > 0
            else "      -"
        )
        print(
            f"{sid:>5s}  {s['stripes']:7d}  {s['sub_reads']:9d}  "
            f"{s['busy_time_s']:6.3f} {rec}   {failed}"
        )
    tput = (
        f"{result.throughput_mib_s:8.1f} MiB/s"
        if result.throughput_mib_s is not None
        else "  (untimed fallback)"
    )
    print(
        f"\n{snap['requests']} requests ({snap['spanning_reads']} spanned "
        f"shards): {tput}, disk-load imbalance {snap['imbalance']:.3f}"
    )
    if rollup["net"].get("enabled"):
        nm = rollup["net"]
        print(
            f"net: {nm['bytes_moved']} repair bytes moved "
            f"({nm['cross_rack_bytes']} cross-rack) over "
            f"{nm['repair_sets']} repair sets across {nm['racks']} racks"
        )
    if rollup["cache"].get("enabled"):
        cm = rollup["cache"]
        print(
            f"hot tier: {cm['hits']}/{cm['lookups']} stripe lookups hit "
            f"({cm['hit_rate']:.1%}), {cm['stripes_resident']}/"
            f"{cm['capacity_stripes']} stripes resident, "
            f"{cm['promotions']} promotions, {cm['evictions']} evictions"
        )
    print(f"payloads byte-exact: {'OK' if ok else 'FAILED'}")

    if args.add_shard:
        try:
            report = cluster.add_shard()
        except ValueError as err:
            print(f"\nadd-shard refused: {err}", file=sys.stderr)
            return 2
        print(
            f"\nadded shard {report.new_shard}: moved {report.stripes_moved}/"
            f"{report.stripes_total} stripes "
            f"({report.moved_fraction:.1%}; expected ~{1 / cluster.num_shards:.1%})"
        )
        again = cluster.submit(ranges, queue_depth=args.queue_depth)
        ok &= again.payloads == [data[o : o + n] for o, n in ranges]
        print(
            "post-rebalance stripes per shard: "
            + " ".join(
                f"s{sid}:{n}" for sid, n in sorted(cluster.stripes_per_shard().items())
            )
        )
        print(f"post-rebalance reads byte-exact: {'OK' if ok else 'FAILED'}")

    if args.fail_shard is not None:
        try:
            report = cluster.fail_shard(args.fail_shard)
        except ValueError as err:
            print(f"\nfail-shard refused: {err}", file=sys.stderr)
            return 2
        spread = " ".join(
            f"s{sid}:{n}" for sid, n in sorted(report.spread.items())
        )
        print(
            f"\ndrained shard {report.failed_shard}: "
            f"{report.stripes_recovered} stripes re-hosted onto survivors "
            f"[{spread}] — spread bound {report.spread_bound}, recovery "
            f"imbalance {report.imbalance:.3f}, makespan "
            f"{report.recovery_makespan_s:.3f}s"
        )
        again = cluster.submit(ranges, queue_depth=args.queue_depth)
        ok &= again.payloads == [data[o : o + n] for o, n in ranges]
        print(f"post-recovery reads byte-exact: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from . import open_cluster
    from .cache import CacheConfig
    from .engine.pipeline import (
        AdmissionController,
        HedgeConfig,
        OpenLoopWorkload,
    )
    from .faults import StragglerDetector

    cluster = open_cluster(
        args.code,
        shards=args.shards,
        layout=args.form,
        element_size=args.element_size,
        map_seed=args.seed,
        cache=(
            CacheConfig(capacity_stripes=args.cache) if args.cache else None
        ),
    )
    rng = np.random.default_rng(args.seed)
    rows = 64
    data = rng.integers(
        0, 256, size=rows * cluster.stripe_bytes, dtype=np.uint8
    ).tobytes()
    cluster.append(data)
    if args.straggle_disk is not None:
        cluster.volumes[0].store.array[args.straggle_disk].slowdown = (
            args.straggle_factor
        )
        print(
            f"disk {args.straggle_disk} of shard 0 straggling at "
            f"x{args.straggle_factor:g} service time"
        )
    workload = OpenLoopWorkload(
        user_bytes=cluster.user_bytes,
        requests=args.requests,
        rate_rps=args.rate,
        min_bytes=max(1, args.element_size // 4),
        max_bytes=4 * args.element_size,
        zipf_s=args.zipf,
        seed=args.seed,
    )
    if args.cache:
        # warm pass: promotions land as jobs complete, so the measured
        # run below sees a hot tier (one run can't hit its own promotions)
        cluster.submit_open_loop(workload.arrivals(), materialize=True)
    result = cluster.submit_open_loop(
        workload.arrivals(),
        admission=AdmissionController(
            max_inflight=args.max_inflight, queue_limit=args.queue_limit
        ),
        hedge=HedgeConfig(
            enabled=not args.no_hedge, multiplier=args.hedge_multiplier
        ),
        detector=StragglerDetector(),
        materialize=args.materialize,
    )
    lat = result.latency.summary()
    wait = result.queue_wait.summary()
    shard_note = f", {args.shards} shards" if args.shards > 1 else ""
    print(
        f"{cluster.volumes[0].store.placement.describe()}{shard_note}: "
        f"open loop @ {args.rate:g} req/s, "
        f"hedging {'off' if args.no_hedge else 'on'}"
    )
    print(
        f"completed {result.completed}/{result.arrived}  "
        f"rejected {result.rejected}  coalesced {result.coalesced}"
    )
    print(
        f"hedges: launched {result.hedges_launched}  won {result.hedges_won}"
        f"  wasted {result.hedges_wasted}"
    )
    print(
        f"latency    p50 {lat['p50'] * 1e3:8.2f} ms   "
        f"p99 {lat['p99'] * 1e3:8.2f} ms   p999 {lat['p999'] * 1e3:8.2f} ms"
    )
    print(
        f"queue wait p50 {wait['p50'] * 1e3:8.2f} ms   "
        f"p99 {wait['p99'] * 1e3:8.2f} ms   mean {wait['mean'] * 1e3:8.2f} ms"
    )
    print(
        f"admission queue peak {result.peak_queue_depth} "
        f"(limit {args.queue_limit}), disk queue peak {result.peak_disk_depth}"
    )
    cache_ns = cluster.metrics()["cache"]
    if cache_ns.get("enabled"):
        print(
            f"hot tier: {cache_ns['hits']}/{cache_ns['lookups']} stripe "
            f"lookups hit ({cache_ns['hit_rate']:.1%}), "
            f"{cache_ns['stripes_resident']} stripes resident"
        )
    ok = True
    if args.materialize:
        arrivals = list(workload.arrivals())
        ok = all(
            result.payloads[i] == data[o : o + n]
            for i, (_, o, n) in enumerate(arrivals)
            if result.payloads[i] is not None
        )
        print(f"payloads byte-exact: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_mttdl(args: argparse.Namespace) -> int:
    from .disks.presets import SAVVIO_10K3
    from .layout import make_placement
    from .reliability import ReliabilityParams, mttdl_markov, rebuild_hours

    code = parse_code_spec(args.code)
    print(
        f"{code.describe()} — disk MTTF {args.disk_mttf_hours:.2e} h, "
        f"LSE probability {args.lse_prob}, rebuild over {args.rows} rows"
    )
    for form in ("standard", "ec-frm"):
        placement = make_placement(form, code)
        hours = rebuild_hours(placement, SAVVIO_10K3, 1024 * 1024, args.rows)
        p = ReliabilityParams(
            num_disks=code.n,
            fault_tolerance=code.fault_tolerance,
            disk_mttf_hours=args.disk_mttf_hours,
            rebuild_hours=hours,
            lse_prob=args.lse_prob,
        )
        print(
            f"  {form:9s}: rebuild {hours * 3600:6.2f}s -> "
            f"MTTDL {mttdl_markov(p):.3e} hours"
        )
    return 0


_HANDLERS = {
    "layout": _cmd_layout,
    "figures": _cmd_figures,
    "bench": _cmd_bench,
    "codes": _cmd_codes,
    "demo": _cmd_demo,
    "recover": _cmd_recover,
    "rebuild": _cmd_rebuild,
    "scrub": _cmd_scrub,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "faults": _cmd_faults,
    "trace": _cmd_trace,
    "migrate": _cmd_migrate,
    "cluster": _cmd_cluster,
    "pipeline": _cmd_pipeline,
    "mttdl": _cmd_mttdl,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
