"""Command-line interface: ``python -m repro <command>``.

Commands
--------
demo
    Run a small end-to-end demonstration (checkpoint → diff → restore)
    and optionally save the record to disk.
inspect <dir>
    Report a stored record, one row per checkpoint: its logical bytes in
    first/shift/fixed/zero classes from the provenance index (no replay),
    with per-chunk lineage depth and reference counts, beside its frame's
    regions; exits 1 on a structural problem or a damaged record.
    ``--sweep`` prices alternative chunk sizes.
census <root>
    Stream several records' chunk digests into one frequency table and
    report achieved vs attainable dedup (intra-record vs shared pool).
verify <dir>
    Integrity-scan a stored record: per-checkpoint digest status, chain
    digest, provenance index, and how many frames are damaged (see
    docs/FAULT_MODEL.md).
restore <dir>
    Reconstruct a checkpoint from a stored record into a raw binary file.
trace <out.json>
    Run a fixed-seed ORANGES workload with telemetry enabled and export a
    Chrome trace_event JSON (load it at https://ui.perfetto.dev) holding
    both clocks: wall time and simulated GPU time (docs/OBSERVABILITY.md).
health <journal...>
    Merge event journals and run the health-rule engine; exits 0/1/2 for
    ok/warn/critical so a CI step can gate on fleet health.
report <journal...>
    Merge event journals and write a self-contained HTML run report
    (SVG timelines, fleet rollups, health findings).
replay <journal>
    Re-drive a recorded incident journal through the runtime and assert
    equivalence (same durable checkpoints, bit-identical restored bytes,
    same health findings); exits 0 iff the replay is equivalent.
fuzz
    Run the incident-fuzzing campaign (``--trials N --seed S``): every
    injected failure must be flagged by a health rule with the injection
    in its evidence, with zero silent-wrong outcomes; exits 0 iff both
    hold.
bench <name>
    Run one of the paper-reproduction benches (table1, fig4, fig5, fig6,
    fusion, metadata, gorder, hybrid, workload, hashfn, streaming,
    restore, faults, fuzz).

``inspect``, ``census``, ``verify``, ``health``, ``replay``,
and ``fuzz`` accept ``--json`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import IncrementalCheckpointer, Restorer
from .core.store import load_record, verify_record
from .errors import ReproError, StorageError
from .record import is_record
from .record.bytestore import record_of
from .utils.rng import seeded_rng
from .utils.units import format_bytes, format_ratio


def _cmd_demo(args: argparse.Namespace) -> int:
    rng = seeded_rng(args.seed)
    data = rng.integers(0, 256, args.size, dtype=np.uint8)
    try:
        ckpt = IncrementalCheckpointer(
            data_len=args.size,
            chunk_size=args.chunk_size,
            method=args.method,
            record_dir=args.save,
        )
    except StorageError as exc:  # --save names a directory holding a record
        print(f"cannot save to {args.save}: {exc}", file=sys.stderr)
        return 1
    for step in range(args.checkpoints):
        stats = ckpt.checkpoint(data)
        print(
            f"ckpt {stats.ckpt_id}: stored {format_bytes(stats.stored_bytes)} "
            f"({format_ratio(stats.dedup_ratio)}), "
            f"{stats.simulated_seconds * 1e6:.1f} us simulated"
        )
        data = data.copy()
        at = int(rng.integers(0, args.size - 4096))
        data[at : at + 4096] = rng.integers(0, 256, 4096, dtype=np.uint8)
    print(f"\n{ckpt.record.summary()}")
    if args.save:
        print(f"record saved to {ckpt.record.writer.path}")
    restored = ckpt.restore(args.checkpoints - 1)
    print(f"restore({args.checkpoints - 1}) ok: {restored.nbytes} bytes")
    return 0


def _chunk_sizes(text: str) -> list:
    """``--sweep``'s comma list of chunk sizes."""
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma list of chunk sizes: {text!r}"
        ) from None


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .telemetry.attribution import attribute_record, sweep_report

    try:
        report = attribute_record(args.record, sweep=args.sweep)
    except ReproError as exc:
        print(f"cannot inspect {args.record}: {exc}", file=sys.stderr)
        return 1
    status = 0 if report.chain_ok else 1
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
        return status
    print(report.summary())
    if report.sweep:
        print("\nwhat-if chunk-size sweep:")
        print(sweep_report(report.sweep))
    if report.problems:
        print("\nINTEGRITY PROBLEMS:")
        for p in report.problems:
            print(f"  - {p}")
    else:
        print("\nchain verified: no structural problems")
    return status


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_record(args.record)
    if args.json:
        doc = {
            "record": report.directory,
            "format_version": report.format_version,
            "ok": report.ok,
            "chain_ok": report.chain_ok,
            "provenance_ok": report.provenance_ok,
            "index_bytes": report.index_bytes,
            "index_raw_bytes": report.index_raw_bytes,
            "index_compression_ratio": report.index_compression_ratio,
            "checkpoints": [
                {
                    "index": c.index,
                    "status": c.status,
                    "detail": c.detail,
                }
                for c in report.checkpoints
            ],
        }
        print(json.dumps(doc, indent=2))
        return 0 if report.ok else 1
    print(f"record: {report.directory} (format v{report.format_version})")
    print(report.summary())
    if report.ok:
        print("\nintegrity: OK")
        return 0
    damaged = sum(not c.loadable for c in report.checkpoints)
    total = len(report.checkpoints)
    print(f"\nintegrity: PROBLEMS — {damaged}/{total} frames damaged")
    return 1


def _cmd_restore(args: argparse.Namespace) -> int:
    try:
        return _restore(args)
    except ReproError as exc:
        which = "newest" if args.checkpoint is None else args.checkpoint
        print(
            f"cannot restore {args.record} checkpoint {which}: {exc}",
            file=sys.stderr,
        )
        return 2


def _restore(args: argparse.Namespace) -> int:
    if args.ranks > 1:
        from .gpusim.cluster import polaris, thetagpu
        from .runtime.fleet_restore import restore_record_sharded

        cluster = polaris() if args.cluster == "polaris" else thetagpu()
        buffer, report = restore_record_sharded(
            args.record,
            args.ranks,
            cluster=cluster,
            upto=args.checkpoint,
            windows=args.windows,
        )
        Path(args.output).write_bytes(buffer.tobytes())
        print(
            f"checkpoint {report.target_ckpt} → {args.output} "
            f"({format_bytes(buffer.nbytes)}) via sharded restore, "
            f"{report.num_ranks} ranks on {args.cluster}, "
            f"{report.windows} window(s)"
        )
        print(
            f"read {format_bytes(report.record_bytes_read)} "
            f"(+index {format_bytes(report.index_bytes)} inclusive) in "
            f"{report.cost.read_seconds * 1e6:.1f} us at PFS bandwidth; "
            f"parsed {report.frames_parsed}/{report.frames_total} frames"
        )
        for rank, cost in enumerate(report.cost.per_rank):
            print(f"  rank {rank}: {cost.seconds * 1e6:.1f} us gather+H2D")
        print(
            f"critical path {report.critical_path_seconds * 1e6:.1f} us "
            f"(serial {report.cost.serial_seconds * 1e6:.1f} us, overlap "
            f"saved {report.cost.overlap_saving_seconds * 1e6:.1f} us)"
        )
        return 0

    if args.replay:
        diffs = load_record(args.record)
        upto = args.checkpoint if args.checkpoint is not None else len(diffs) - 1
        buffer = Restorer().restore(diffs, upto)
        Path(args.output).write_bytes(buffer.tobytes())
        print(
            f"checkpoint {upto} → {args.output} ({format_bytes(buffer.nbytes)}) "
            f"via chain replay; chain of {len(diffs)}, {upto + 1} diffs applied"
        )
        return 0

    from .core.provenance import restore_record_indexed

    buffer, report = restore_record_indexed(args.record, upto=args.checkpoint)
    Path(args.output).write_bytes(buffer.tobytes())
    print(
        f"checkpoint {report.target_ckpt} → {args.output} "
        f"({format_bytes(buffer.nbytes)}) via indexed"
    )
    frame_bytes_read = report.record_bytes_read - report.index_bytes
    print(
        f"read {format_bytes(frame_bytes_read)} of "
        f"{format_bytes(report.record_bytes)} record bytes "
        f"(+ {format_bytes(report.index_bytes)} index); parsed "
        f"{report.frames_parsed}/{report.frames_total} frames"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from . import telemetry
    from .oranges import OrangesApp
    from .telemetry.export import (
        metrics_to_prometheus,
        phase_summary,
        span_sim_seconds,
        write_chrome_trace,
    )

    was_enabled = telemetry.enabled()
    telemetry.enable(reset=True)
    try:
        app = OrangesApp(
            args.graph, num_vertices=args.vertices, seed=args.seed
        )
        backend = app.make_backend(args.method, chunk_size=args.chunk_size)
        run = app.run({"ckpt": backend}, num_checkpoints=args.checkpoints)
        backend.restore(args.checkpoints - 1)
        model = backend.cost_model

        # The acceptance invariant: per-checkpoint span sim-time must sum
        # to exactly what the bench harness reports (CostBreakdown totals).
        tracer = telemetry.get_tracer()
        span_total = sum(
            span_sim_seconds(r, model)
            for r in tracer.spans()
            if r.name == "checkpoint"
        )
        stats_total = sum(s.cost.total_seconds for s in backend.record.stats)
        matches = math.isclose(
            span_total, stats_total, rel_tol=1e-9, abs_tol=1e-15
        )

        out = write_chrome_trace(args.output, model=model)
        summary = phase_summary(model=model)
        if args.metrics_out:
            Path(args.metrics_out).write_text(metrics_to_prometheus())

        print(
            f"ORANGES {run.graph_name}: {run.num_vertices} vertices, "
            f"{run.num_checkpoints} checkpoints of "
            f"{format_bytes(run.gdv_bytes)} ({args.method}@{args.chunk_size})"
        )
        print(f"{'span':<24s} {'count':>6s} {'wall s':>10s} {'sim s':>12s}")
        for name, row in sorted(summary["spans"].items()):
            print(
                f"{name:<24s} {row['count']:>6d} "
                f"{row['wall_seconds']:>10.4f} {row['sim_seconds']:>12.3e}"
            )
        print(f"\ntrace written to {out}")
        if args.metrics_out:
            print(f"metrics written to {args.metrics_out}")
        verdict = "match" if matches else "MISMATCH"
        print(
            f"sim-clock check: checkpoint spans {span_total:.9e} s vs "
            f"cost model {stats_total:.9e} s — {verdict}"
        )
        return 0 if matches else 1
    finally:
        if was_enabled:
            telemetry.enable(reset=False)
        else:
            telemetry.disable()


def _load_and_grade(journal_paths):
    """The rollup of the journal files and its health report."""
    from .telemetry import build_rollup, evaluate_health, read_journal

    rollup = build_rollup([read_journal(p) for p in journal_paths])
    return rollup, evaluate_health(rollup)


def _cmd_health(args: argparse.Namespace) -> int:
    rollup, report = _load_and_grade(args.journal)
    if args.json:
        doc = report.as_dict()
        doc["fleet"] = rollup.summary()
        print(json.dumps(doc, indent=2, default=str))
        return report.exit_code
    summary = rollup.summary()
    print(
        f"fleet: {len(rollup.events)} events from {len(args.journal)} journal(s), "
        f"{summary['nodes']} node(s), {summary['ranks']} rank(s), "
        f"{summary['checkpoints']} checkpoints"
    )
    print(
        f"dedup {format_ratio(summary['dedup_ratio'])}, stored "
        f"{format_bytes(summary['stored_bytes'])}, "
        f"{summary['crashes']} crashes, "
        f"{summary['tier_outages']} tier outages"
    )
    print(report.summary())
    return report.exit_code


def _cmd_report(args: argparse.Namespace) -> int:
    from .telemetry.report import write_report

    rollup, health = _load_and_grade(args.journal)
    out = write_report(args.output, rollup, health, title=args.title)
    print(
        f"report written to {out} ({len(rollup.events)} events, "
        f"status {health.status}, {len(health.findings)} findings)"
    )
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    import time as time_mod

    from .telemetry.live import LiveMonitor, MonitorServer

    monitor = LiveMonitor(path=args.journal)
    server = None
    if args.port is not None:
        server = MonitorServer(monitor, port=args.port).start()
        print(f"serving /metrics /healthz /slo on {server.url}", flush=True)
    try:
        if args.once:
            if args.json:
                print(json.dumps(monitor.snapshot(), indent=2, default=str))
                return monitor.report(refresh=False).exit_code
            print(monitor.rank_table())
            report = monitor.report(refresh=False)
            print(report.summary())
            return report.exit_code
        polls = 0
        try:
            while args.polls is None or polls < args.polls:
                polls += 1
                print(monitor.rank_table())
                print(monitor.report(refresh=False).summary())
                print(flush=True)
                if args.polls is not None and polls >= args.polls:
                    break
                time_mod.sleep(args.interval)
        except KeyboardInterrupt:
            pass
        return monitor.report(refresh=False).exit_code
    finally:
        if server is not None:
            server.stop()
        monitor.close()


def _cmd_replay(args: argparse.Namespace) -> int:
    import tempfile

    from .errors import ReplayError
    from .replay import JournalReplayer

    try:
        replayer = JournalReplayer(args.journal)
        with tempfile.TemporaryDirectory(prefix="repro-replay-") as tmp:
            workdir = Path(args.workdir) if args.workdir else Path(tmp)
            result = replayer.replay(
                workdir=workdir, journal_path=args.output
            )
    except ReplayError as exc:
        print(f"cannot replay {args.journal}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, default=str))
        return 0 if result.equivalent else 1
    timeline = replayer.timeline
    print(
        f"replayed run {result.run_id!r}: {len(timeline.records)} records, "
        f"{len(timeline.incidents)} incidents "
        f"({result.skipped_lines} damaged line(s) skipped)"
    )
    print(
        f"durable checkpoints: {len(result.original.durable)} recorded, "
        f"{len(result.replay.durable)} replayed; "
        f"findings: {len(result.original.findings)} vs "
        f"{len(result.replay.findings)}"
    )
    if result.equivalent:
        print("replay EQUIVALENT: durable set, restored bytes, and health "
              "findings all match")
        return 0
    print(f"replay DIVERGED ({len(result.divergences)} component(s)):")
    for divergence in result.divergences:
        print(f"  [{divergence.kind}] {divergence.detail}")
    return 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import tempfile

    from .replay import JournalReplayer, RunConfig, run_fuzz_campaign

    if args.journal:
        config = JournalReplayer(args.journal).timeline.config
    else:
        config = RunConfig(seed=args.seed)
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
        workdir = Path(args.workdir) if args.workdir else Path(tmp)
        report = run_fuzz_campaign(
            config,
            trials=args.trials,
            seed=args.seed,
            workdir=workdir,
            replay_each=not args.no_replay,
        )
    doc = report.as_dict()
    ok = doc["flag_coverage"] == 1.0 and doc["silent_wrong"] == 0
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0 if ok else 1
    print(
        f"fuzz campaign: {doc['trials']} trials (seed {doc['seed']}), "
        f"operators {doc['operators']}"
    )
    print(
        f"flag coverage: {doc['flagged_total']}/{doc['injected_total']} "
        f"injected failures flagged ({doc['flag_coverage']:.1%}); "
        f"silent wrong: {doc['silent_wrong']}"
    )
    if doc["replays"]:
        print(
            f"replays: {doc['replays_equivalent']}/{doc['replays']} "
            f"equivalent; divergences p50={doc['divergence_p50']:g} "
            f"p99={doc['divergence_p99']:g}"
        )
    for miss in doc["unflagged"]:
        print(f"  UNFLAGGED: {miss}")
    print("campaign " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


def _cmd_census(args: argparse.Namespace) -> int:
    from .telemetry.attribution import ChunkCensus

    root = Path(args.root)
    if is_record(root):
        record_dirs = [root]
    else:
        # A swap's sibling directories stand for the record they replace.
        named = {record_of(p) for p in root.iterdir() if p.is_dir()}
        record_dirs = sorted(p for p in named if is_record(p))
    if not record_dirs:
        print(f"no records found under {root}", file=sys.stderr)
        return 1
    census = ChunkCensus()
    for directory in record_dirs:
        try:
            census.add_record(directory)
        except ReproError as exc:
            print(f"cannot census {root}: {directory.name}: {exc}", file=sys.stderr)
            return 1
    report = census.report(top=args.top)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
        return 0
    print(report.summary())
    return 0


_BENCHES = {
    "table1": "bench_table1_graphs",
    "fig4": "bench_fig4_chunksize",
    "fig5": "bench_fig5_frequency",
    "fig6": "bench_fig6_scaling",
    "fusion": "bench_ablation_fusion",
    "metadata": "bench_ablation_metadata",
    "gorder": "bench_ablation_gorder",
    "hybrid": "bench_ablation_hybrid",
    "workload": "bench_ablation_workload",
    "hashfn": "bench_ablation_hashfn",
    "streaming": "bench_streaming",
    "restore": "bench_restore",
    "append": "bench_append",
    "overhead": "bench_runtime_overhead",
    "faults": "bench_faults",
    "fuzz": "bench_fuzz",
    "census": "bench_census",
}


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run one bench's ``run()``.  A bench whose ``run()`` takes
    ``num_vertices`` gets it by keyword (``--vertices``, else
    ``REPRO_BENCH_VERTICES`` or its default); any other bench given
    ``--vertices`` is a usage error."""
    import importlib.util
    import inspect

    module_name = _BENCHES[args.name]
    bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
    path = bench_dir / f"{module_name}.py"
    if not path.exists():
        print(f"bench file not found: {path}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(bench_dir))
    try:
        spec = importlib.util.spec_from_file_location(module_name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # type: ignore[union-attr]
        if "num_vertices" in inspect.signature(module.run).parameters:
            from conftest import bench_vertices  # benchmarks/conftest.py

            print(module.run(num_vertices=args.vertices or bench_vertices()))
        elif args.vertices:
            print(
                f"repro bench {args.name}: takes no --vertices", file=sys.stderr
            )
            return 2
        else:
            print(module.run())
    finally:
        sys.path.remove(str(bench_dir))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU-accelerated de-duplication checkpointing (ICPP'23 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="end-to-end checkpoint/restore demo")
    demo.add_argument("--size", type=int, default=1 << 20, help="buffer bytes")
    demo.add_argument("--chunk-size", type=int, default=128)
    demo.add_argument("--method", default="tree",
                      choices=["tree", "list", "basic", "full"])
    demo.add_argument("--checkpoints", type=int, default=5)
    demo.add_argument("--seed", type=int, default=1)
    demo.add_argument("--save", help="directory to persist the record to")
    demo.set_defaults(func=_cmd_demo)

    inspect = sub.add_parser(
        "inspect",
        help="report a stored record: byte classes, frame regions, chain verdict",
    )
    inspect.add_argument("record", help="record directory")
    inspect.add_argument(
        "--sweep", type=_chunk_sizes, default=[], metavar="SIZES",
        help="also price alternative chunk sizes (comma list, e.g. 64,128,256)",
    )
    inspect.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    inspect.set_defaults(func=_cmd_inspect)

    census = sub.add_parser(
        "census",
        help="cross-record chunk census: achieved vs attainable dedup",
    )
    census.add_argument(
        "root", help="a record directory, or a directory of record directories"
    )
    census.add_argument(
        "--top", type=int, default=10,
        help="how many top duplicated chunk families to report",
    )
    census.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    census.set_defaults(func=_cmd_census)

    verify = sub.add_parser("verify", help="integrity-scan a stored record")
    verify.add_argument("record", help="record directory")
    verify.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    verify.set_defaults(func=_cmd_verify)

    restore = sub.add_parser("restore", help="reconstruct a checkpoint")
    restore.add_argument("record", help="record directory")
    restore.add_argument("-k", "--checkpoint", type=int, default=None)
    restore.add_argument("-o", "--output", default="restored.bin")
    path_group = restore.add_mutually_exclusive_group()
    path_group.add_argument(
        "--fast",
        dest="replay",
        action="store_false",
        help="provenance-indexed restore, reading only referenced frames (default)",
    )
    path_group.add_argument(
        "--replay",
        dest="replay",
        action="store_true",
        help="chain replay, the reference every gather is tested against",
    )
    restore.add_argument(
        "--ranks", type=int, default=1,
        help="shard the restore's gathers across N simulated GPUs",
    )
    restore.add_argument(
        "--cluster", default="thetagpu", choices=["thetagpu", "polaris"],
        help="cluster topology pricing the sharded fan-out",
    )
    restore.add_argument(
        "--windows", type=int, default=None,
        help="read/gather overlap windows (default: cost-model pick)",
    )
    restore.set_defaults(func=_cmd_restore, replay=False)

    trace = sub.add_parser(
        "trace", help="run a telemetry-traced ORANGES workload"
    )
    trace.add_argument(
        "-o", "--output", default="trace.json",
        help="Chrome trace_event JSON output path",
    )
    trace.add_argument("--graph", default="message_race",
                       choices=["message_race", "unstructured_mesh",
                                "asia_osm", "hugebubbles", "delaunay"])
    trace.add_argument("--vertices", type=int, default=256)
    trace.add_argument("--method", default="tree",
                       choices=["tree", "list", "basic", "full"])
    trace.add_argument("--chunk-size", type=int, default=128)
    trace.add_argument("--checkpoints", type=int, default=5)
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument(
        "--metrics-out", default=None,
        help="also write a Prometheus-format metrics dump here",
    )
    trace.set_defaults(func=_cmd_trace)

    health = sub.add_parser(
        "health", help="grade merged event journals with the health rules"
    )
    health.add_argument("journal", nargs="+", help="JSONL event journal(s)")
    health.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    health.set_defaults(func=_cmd_health)

    report = sub.add_parser(
        "report", help="render merged event journals as an HTML run report"
    )
    report.add_argument("journal", nargs="+", help="JSONL event journal(s)")
    report.add_argument("-o", "--output", default="report.html")
    report.add_argument("--title", default="Checkpoint fleet run report")
    report.set_defaults(func=_cmd_report)

    monitor = sub.add_parser(
        "monitor",
        help="watch a live run: tail its journal(s), grade liveness and SLOs",
    )
    monitor.add_argument(
        "journal", help="JSONL journal file, or a directory of *.jsonl"
    )
    monitor.add_argument(
        "--once", action="store_true",
        help="one snapshot instead of the refresh loop",
    )
    monitor.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refresh-loop polls (default 2)",
    )
    monitor.add_argument(
        "--polls", type=int, default=None,
        help="stop the refresh loop after this many polls (default: forever)",
    )
    monitor.add_argument(
        "--port", type=int, default=None,
        help="also serve /metrics /healthz /slo on this port (0 = ephemeral)",
    )
    monitor.add_argument(
        "--json", action="store_true",
        help="with --once: print the /slo JSON snapshot",
    )
    monitor.set_defaults(func=_cmd_monitor)

    replay = sub.add_parser(
        "replay", help="re-drive a recorded incident journal and assert equivalence"
    )
    replay.add_argument("journal", help="JSONL event journal of one recorded run")
    replay.add_argument(
        "-o", "--output", default=None,
        help="write the replay's own journal (with any replay_divergence "
             "events) to this path",
    )
    replay.add_argument(
        "--workdir", default=None,
        help="directory for replayed record-corruption legs "
             "(default: a temporary directory)",
    )
    replay.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    replay.set_defaults(func=_cmd_replay)

    fuzz = sub.add_parser(
        "fuzz", help="incident-fuzzing campaign proving health-rule coverage"
    )
    fuzz.add_argument("--trials", type=int, default=60)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--journal", default=None,
        help="fuzz around the run configuration of this recorded journal "
             "(default: the built-in synthetic config)",
    )
    fuzz.add_argument(
        "--workdir", default=None,
        help="directory for per-trial record legs (default: temporary)",
    )
    fuzz.add_argument(
        "--no-replay", action="store_true",
        help="skip the per-trial replay-equivalence check",
    )
    fuzz.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    bench = sub.add_parser("bench", help="run a paper-reproduction bench")
    bench.add_argument("name", choices=sorted(_BENCHES))
    bench.add_argument("--vertices", type=int, default=0,
                       help="graph scale override")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
