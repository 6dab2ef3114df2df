"""End-to-end commit -> restore benchmark.  See README.md beside this file.

Driver form (one workload, one JSON line last on stdout)::

    python3 benchmarks/e2e/run.py --workload dense_churn --seed 7 --seconds 20 --trace 0

All four workloads interleaved in one process, every metric::

    python3 benchmarks/e2e/run.py --seed 7            # add --aa for an A/A check
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.hashing.native import native_available  # noqa: E402

import spec  # noqa: E402
from accounting import account  # noqa: E402
from estimators import worsening  # noqa: E402
from harness import (  # noqa: E402
    COLD_START,
    ROUND_PASSES,
    WorkloadRun,
    run_passes,
    scaled_rounds,
)
from metrics import end_to_end, layers_sum_to_root, per_layer  # noqa: E402
from tracing import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The program's own flush policy, stated with every result.
FLUSH_POLICY = "buffered writes, no fsync (the record store's own policy)"


def pin_to_one_cpu() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def fingerprint(native: bool, workdir: Path) -> Dict[str, object]:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu_model": cpu,
        "cpus": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_kernel": native,
        "workdir": str(workdir),
        "flush_policy": FLUSH_POLICY,
    }


def accounting_pass(name: str, seed: int, workdir: Path) -> Dict[str, float]:
    """Run the accounting round of *name* in a child and read its counts."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--accounting-child", name,
            "--seed", str(seed), "--workdir", str(workdir),
        ],
        check=True,
        capture_output=True,
        text=True,
        timeout=170,
    )
    sys.stderr.write(done.stderr)
    return json.loads(done.stdout.splitlines()[-1])


def measure(
    names: List[str], seed: int, rounds: Dict[str, int], want: str, workdir: Path
) -> Dict[str, dict]:
    """Run every pass for *names*; returns one result object per workload.

    *want* is ``"0"`` (end-to-end metrics), ``"1"`` (per-layer metrics) or
    ``"both"``.
    """
    t0 = time.perf_counter()
    native = native_available()
    native_build_s = time.perf_counter() - t0

    runs: Dict[str, WorkloadRun] = {}
    for name in names:
        t0 = time.perf_counter()
        trace = WORKLOADS[name].trace(seed)
        runs[name] = WorkloadRun(WORKLOADS[name], trace, time.perf_counter() - t0)

    recorder = SpanRecorder() if "traced" in rounds else None
    run_passes(runs, rounds, workdir, recorder)
    operations = recorder.operations() if recorder is not None else []
    if recorder is not None:
        out_dir = HERE / "out"
        recorder.write_chrome_trace(out_dir / f"trace-{'-'.join(names)}-{seed}.json")
        gap = layers_sum_to_root(operations)
        if gap > 1e-9:
            raise AssertionError(f"layer self times miss their root span by {gap:.3g}")

    results: Dict[str, dict] = {}
    for name, run in runs.items():
        counts = accounting_pass(name, seed, workdir)
        attempted = run.tally.attempted + int(counts["attempted"])
        failed = run.tally.failed + int(counts["failed"])
        if len(run.cold_start_s) != rounds.get(COLD_START, 0):
            failed += 1
            print(f"FAILED: {name}: a cold start did not finish", file=sys.stderr)
        for kind in ROUND_PASSES:
            # Telemetry must never change checkpoint bytes; nor may a rerun.
            digests = {r.chain_digest for r in run.rounds[kind]}
            digests |= {r.chain_digest for r in run.rounds["timing"]}
            if len(run.rounds[kind]) != rounds.get(kind, 0) or len(digests) != 1:
                failed += 1
                print(f"FAILED: {name} {kind}: rounds lost or bytes differ", file=sys.stderr)
        values: Dict[str, float] = {}
        if failed == 0:
            if want in ("0", "both"):
                values.update(end_to_end(run, counts))
            if want in ("1", "both"):
                values.update(per_layer(run, counts, operations, native, native_build_s))
        if want == "both":
            values["failed_ops_share"] = failed / attempted
        results[name] = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                k: {"value": v, "unit": spec.UNITS[k]} for k, v in values.items()
            },
        }
    return results


def compare_aa(first: Dict[str, dict], second: Dict[str, dict]) -> bool:
    """Print both runs' end-to-end metrics side by side; True when every
    difference is within its bound."""
    ok = True
    print(f"{'workload':16s} {'metric':36s} {'A':>12s} {'B':>12s} {'worse by':>9s} {'bound':>6s}")
    for name in first:
        for metric, _unit, better, bound in spec.END_TO_END:
            a = first[name]["metrics"][metric]["value"]
            b = second[name]["metrics"][metric]["value"]
            # Whichever run came out worse, neither may be worse by more
            # than the bound.
            worse = max(worsening(a, b, better), worsening(b, a, better))
            flag = "" if worse <= bound else "  <-- exceeds bound"
            ok = ok and worse <= bound
            print(f"{name:16s} {metric:36s} {a:12.5g} {b:12.5g} {worse:9.2%} {bound:6.1%}{flag}")
    return ok


def record_history(results: Dict[str, dict], seed: int, fp: Dict[str, object]) -> None:
    """Append one line of headline values to ``history.jsonl``."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    headline = [m for m, *_ in spec.END_TO_END] + ["failed_ops_share"]
    line = {
        "commit": commit,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": seed,
        "fingerprint": fp,
        "workloads": {
            name: {m: r["metrics"][m]["value"] for m in headline if m in r["metrics"]}
            for name, r in results.items()
        },
    }
    with open(HERE / "history.jsonl", "a") as f:
        f.write(json.dumps(line, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.SECONDS_NOMINAL,
                        help="nominal measuring time; scales the fixed round counts")
    parser.add_argument("--trace", choices=("0", "1"), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics (traced pass); "
                        "default: 0 with --workload, both without")
    parser.add_argument("--aa", action="store_true",
                        help="run twice back to back and compare against the bounds")
    parser.add_argument("--record", action="store_true",
                        help="append the headline values to history.jsonl")
    parser.add_argument("--workdir", type=Path, default=HERE / ".work")
    parser.add_argument("--accounting-child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = args.workdir / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.accounting_child:
            w = WORKLOADS[args.accounting_child]
            print(json.dumps(account(w, w.trace(args.seed), workdir)))
            return 0

        pin_to_one_cpu()
        trace = "0" if args.aa else args.trace  # an A/A compares the gated metrics
        if args.workload:
            want = trace or "0"
            table = spec.ROUNDS_TRACE if want == "1" else spec.ROUNDS_E2E
            names = [args.workload]
        else:
            want = trace or "both"
            table = spec.ROUNDS_FULL
            if want == "0":
                table = {k: table[k] for k in spec.ROUNDS_E2E}
            names = list(WORKLOADS)
        rounds = scaled_rounds(table, args.seconds, spec.SECONDS_NOMINAL)

        results = measure(names, args.seed, rounds, want, workdir)
        ok = all(r["correct"] for r in results.values())
        if args.aa and ok:
            again = measure(names, args.seed, rounds, want, workdir)
            ok = all(r["correct"] for r in again.values()) and compare_aa(results, again)
            return 0 if ok else 1

        if args.workload:
            print(json.dumps(results[args.workload]))
        else:
            fp = fingerprint(native_available(), workdir)
            print(json.dumps({"fingerprint": fp, "seed": args.seed, "rounds": rounds}))
            for name, result in results.items():
                print(json.dumps({"workload": name, **result}))
            if args.record and ok:
                record_history(results, args.seed, fp)
        return 0 if ok else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
