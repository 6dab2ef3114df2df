"""Benchmark regression gate: fresh ``BENCH_*.json`` vs committed baselines.

The repo commits golden bench reports (``BENCH_hotpath.json`` etc.) as
the performance record of the paper reproduction.  CI re-runs the
benches on every push; this script compares the key metrics of the
fresh reports against the committed baselines and fails when any
higher-is-better metric dropped by more than ``--threshold`` (default
25%, overridable via ``REPRO_REGRESSION_THRESHOLD``).

Usage::

    python benchmarks/check_regression.py --baseline bench_baseline --fresh .

Metric addressing is a dotted path into the JSON document; one level of
list selection is supported with ``name[key=value]`` (used to pin the
chain-length-50 row of the restore sweep).  A metric missing from the
*baseline* is reported as ``new`` and skipped — the gate never blocks
adding metrics.  A metric missing from the *fresh* report fails: the
bench stopped measuring something it used to.

Besides the thresholded metrics, ``EXACT_METRICS`` lists correctness
invariants (fuzz-campaign flag coverage and silent-wrong count) that
must match their required value exactly in the fresh report, and
``BOUNDED_METRICS`` lists lower-is-better ceilings (the append-path
flatness ratios and the gather's many-sources ratio) the fresh report
may never exceed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import List, Optional, Tuple

#: (file, dotted metric path) — all higher-is-better.
METRICS: List[Tuple[str, str]] = [
    ("BENCH_hotpath.json", "hash.gb_per_s"),
    ("BENCH_hotpath.json", "map.mops_per_s"),
    # 1 / map_small.us_per_row: this list gates higher-is-better figures.
    ("BENCH_hotpath.json", "map_small.mops_per_s"),
    ("BENCH_hotpath.json", "tree_e2e[chunk_size=128].ckpt_per_s"),
    # Compiled Tree passes over the NumPy passes, same host, same run: a
    # drop means the passes between the kernels are back in the interpreter.
    ("BENCH_hotpath.json", "tree_passes[case=512k_128b_one_byte].speedup_vs_numpy"),
    ("BENCH_hotpath.json", "tree_passes[case=512k_128b_block_swap].speedup_vs_numpy"),
    ("BENCH_hotpath.json", "tree_passes[case=4096k_64b_one_byte].speedup_vs_numpy"),
    ("BENCH_restore.json", "tree_sweep[chain_len=50].speedup"),
    ("BENCH_restore.json", "fleet.points[ranks=16].speedup"),
    ("BENCH_restore.json", "fleet.rpix.compression_ratio"),
    ("BENCH_faults.json", "record.total.detection_rate"),
    ("BENCH_faults.json", "record.total.recovery_rate"),
    ("BENCH_census.json", "census.pool_forecast_ratio"),
]

#: (file, dotted metric path, required value) — correctness invariants,
#: not performance: the fresh report must match *exactly*, no threshold.
#: The fuzz campaign is only meaningful at 100% flag coverage and zero
#: silent-wrong outcomes; any other value is a coverage hole.
EXACT_METRICS: List[Tuple[str, str, float]] = [
    ("BENCH_fuzz.json", "fuzz.flag_coverage", 1.0),
    ("BENCH_fuzz.json", "fuzz.silent_wrong", 0.0),
]

#: (file, dotted metric path, ceiling) — lower-is-better, gated on the
#: fresh report alone.  The append path's O(1) claim: the 500th append
#: must cost no more than 1.5x the 10th, in wall time and in bytes, and
#: the per-append row-group cost must not grow with the chain.  The
#: gather's claim: one 4 MiB state gathered from 100 source payloads
#: costs at most 2.5x the same bytes from 1 (a per-source gather loop
#: measures ~5x; the grouped gather ~1.3-1.7x).
BOUNDED_METRICS: List[Tuple[str, str, float]] = [
    ("BENCH_append.json", "append.tail_over_head_ratio", 1.5),
    ("BENCH_append.json", "append.bytes_tail_over_head_ratio", 1.5),
    ("BENCH_append.json", "append.index_bytes_per_append_ratio", 1.5),
    ("BENCH_restore.json", "gather.sources_100_over_1", 2.5),
]

_SELECT = re.compile(r"^(?P<name>\w+)\[(?P<key>\w+)=(?P<value>[^\]]+)\]$")


def extract(doc, path: str) -> Optional[float]:
    """Resolve a dotted path (with optional list selector) to a number."""
    node = doc
    for part in path.split("."):
        select = _SELECT.match(part)
        if select:
            name, key, value = select.group("name", "key", "value")
            rows = node.get(name) if isinstance(node, dict) else None
            if not isinstance(rows, list):
                return None
            node = next(
                (r for r in rows if str(r.get(key)) == value), None
            )
        elif isinstance(node, dict):
            node = node.get(part)
        else:
            return None
        if node is None:
            return None
    return float(node) if isinstance(node, (int, float)) else None


def check(baseline_dir: Path, fresh_dir: Path, threshold: float) -> int:
    rows = []
    failures = 0
    for filename, path in METRICS:
        label = f"{filename.removeprefix('BENCH_').removesuffix('.json')}:{path}"
        base_file = baseline_dir / filename
        fresh_file = fresh_dir / filename
        if not base_file.exists():
            rows.append((label, None, None, "skip (no baseline file)"))
            continue
        base = extract(json.loads(base_file.read_text()), path)
        if base is None:
            rows.append((label, None, None, "skip (new metric)"))
            continue
        if not fresh_file.exists():
            rows.append((label, base, None, "FAIL (fresh report missing)"))
            failures += 1
            continue
        fresh = extract(json.loads(fresh_file.read_text()), path)
        if fresh is None:
            rows.append((label, base, None, "FAIL (metric gone)"))
            failures += 1
            continue
        drop = (base - fresh) / base if base else 0.0
        if drop > threshold:
            rows.append((label, base, fresh, f"FAIL (-{drop:.0%})"))
            failures += 1
        else:
            verdict = f"ok ({'+' if drop <= 0 else '-'}{abs(drop):.0%})"
            rows.append((label, base, fresh, verdict))

    for filename, path, required in EXACT_METRICS:
        label = f"{filename.removeprefix('BENCH_').removesuffix('.json')}:{path}"
        fresh_file = fresh_dir / filename
        if not fresh_file.exists():
            if (baseline_dir / filename).exists():
                rows.append((label, required, None, "FAIL (fresh report missing)"))
                failures += 1
            else:
                rows.append((label, required, None, "skip (no baseline file)"))
            continue
        fresh = extract(json.loads(fresh_file.read_text()), path)
        if fresh is None:
            rows.append((label, required, None, "FAIL (metric gone)"))
            failures += 1
        elif fresh != required:
            rows.append((label, required, fresh, "FAIL (exact gate)"))
            failures += 1
        else:
            rows.append((label, required, fresh, "ok (exact)"))

    for filename, path, ceiling in BOUNDED_METRICS:
        label = f"{filename.removeprefix('BENCH_').removesuffix('.json')}:{path}"
        fresh_file = fresh_dir / filename
        if not fresh_file.exists():
            if (baseline_dir / filename).exists():
                rows.append((label, ceiling, None, "FAIL (fresh report missing)"))
                failures += 1
            else:
                rows.append((label, ceiling, None, "skip (no baseline file)"))
            continue
        fresh = extract(json.loads(fresh_file.read_text()), path)
        if fresh is None:
            rows.append((label, ceiling, None, "FAIL (metric gone)"))
            failures += 1
        elif fresh > ceiling:
            rows.append((label, ceiling, fresh, "FAIL (over ceiling)"))
            failures += 1
        else:
            rows.append((label, ceiling, fresh, "ok (under ceiling)"))

    width = max(len(r[0]) for r in rows) if rows else 0
    print(f"benchmark regression gate (threshold {threshold:.0%} drop)")
    for label, base, fresh, verdict in rows:
        fmt = lambda v: f"{v:>10.3f}" if v is not None else " " * 9 + "-"
        print(f"  {label:<{width}}  base {fmt(base)}  fresh {fmt(fresh)}  {verdict}")
    if failures:
        print(f"{failures} metric(s) regressed past the threshold")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="directory holding the baseline BENCH_*.json")
    parser.add_argument("--fresh", type=Path, required=True,
                        help="directory holding the freshly produced reports")
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("REPRO_REGRESSION_THRESHOLD", 0.25)),
        help="maximum tolerated fractional drop (default 0.25)",
    )
    args = parser.parse_args(argv)
    return check(args.baseline, args.fresh, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
