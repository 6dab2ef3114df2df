"""Tests of the benchmark's own machinery.  Not part of tier-1; run with

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_estimators.py
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for extra in (str(HERE), str(REPO / "src")):
    if extra not in sys.path:
        sys.path.insert(0, extra)

import spec  # noqa: E402
from accounting import account  # noqa: E402
from estimators import (  # noqa: E402
    floor_percentile,
    low_quantile,
    step_floors,
    worsening,
)
from harness import WorkloadRun, run_passes, schedule  # noqa: E402
from metrics import layers_sum_to_root, per_layer  # noqa: E402
from tracing import COMMIT_ROOT, TARGETS, SpanRecorder  # noqa: E402
from workloads import WORKLOADS, TraceCursor  # noqa: E402


# ----------------------------------------------------------------------
# Estimators against planted values under slow regimes
# ----------------------------------------------------------------------
def regime_multiplier(rng: np.random.Generator, horizon_s: float):
    """A step function of time: fast (x1) and slow (x1.3-1.6) regimes of
    1-3 minutes each, as measured on the target VM."""
    edges, factors = [0.0], []
    slow = bool(rng.integers(0, 2))
    while edges[-1] < horizon_s:
        edges.append(edges[-1] + rng.uniform(60.0, 180.0))
        factors.append(rng.uniform(1.3, 1.6) if slow else 1.0)
        slow = not slow
    edges = np.array(edges)
    return lambda t: factors[int(np.searchsorted(edges, t, side="right")) - 1]


@pytest.mark.parametrize("rng_seed", range(8))
def test_floor_then_percentile_recovers_planted_commit_cost(rng_seed):
    rng = np.random.default_rng(rng_seed)
    planted = rng.lognormal(mean=np.log(5e-3), sigma=0.3, size=100)
    regime = regime_multiplier(rng, 300.0)
    rounds = 20
    times = np.arange(rounds) * 12.0  # interleaving spreads 20 rounds over 4 min
    samples = np.array(
        [planted * regime(t) * (1.0 + np.abs(rng.normal(0, 0.03, 100))) for t in times]
    )
    for q in (50, 90):
        truth = np.percentile(planted, q)
        assert floor_percentile(samples, q) == pytest.approx(truth, rel=0.03)
    assert np.all(step_floors(samples) >= planted)


def test_raw_median_follows_the_regime_where_the_floor_does_not():
    rng = np.random.default_rng(0)
    planted = np.full(100, 5e-3)
    # 14 of 20 rounds fall in a x1.5 regime.
    factors = np.array([1.5] * 14 + [1.0] * 6)
    samples = planted * factors[:, None] * (1.0 + np.abs(rng.normal(0, 0.02, (20, 100))))
    assert np.median(samples) > 1.4 * 5e-3
    assert floor_percentile(samples, 50) == pytest.approx(5e-3, rel=0.02)


@pytest.mark.parametrize("rng_seed", range(8))
def test_p10_recovers_planted_restore_cost(rng_seed):
    rng = np.random.default_rng(100 + rng_seed)
    planted = 0.150
    regime = regime_multiplier(rng, 300.0)
    times = np.repeat(np.arange(20) * 12.0, 4)  # 4 restores per round
    samples = np.array(
        [planted * regime(t) * (1.0 + abs(rng.normal(0, 0.04))) for t in times]
    )
    # One lucky outlier below the floor must not drag the estimate with it.
    samples[3] = planted * 0.8
    assert low_quantile(samples) == pytest.approx(planted, rel=0.06)
    assert samples.min() < 0.85 * planted


def test_worsening_and_bad_input():
    assert worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert worsening(10.0, 11.0, "higher") == pytest.approx(-0.1)
    with pytest.raises(ValueError):
        worsening(1.0, 2.0, "sideways")
    with pytest.raises(ValueError):
        step_floors([])


# ----------------------------------------------------------------------
# The metric table, BENCHMARK.json and README agree
# ----------------------------------------------------------------------
def test_metric_names_fit_the_contract():
    e2e = [name for name, *_ in spec.END_TO_END]
    layers = [name for name, *_ in spec.PER_LAYER]
    names = e2e + layers + list(WORKLOADS)
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for unit in spec.UNITS.values():
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    assert len(e2e) <= 16 and len(layers) <= 128
    assert "setup_s" in e2e
    assert all(0 < bound <= 0.25 for *_, bound in spec.END_TO_END)
    assert 2 <= len(WORKLOADS) <= 8
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS.values())


def test_benchmark_json_is_the_spec():
    on_disk = json.loads((REPO / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json(WORKLOADS.values())


def test_readme_names_every_metric_and_workload():
    readme = (HERE / "README.md").read_text()
    for name in [n for n, *_ in spec.END_TO_END + spec.PER_LAYER] + list(WORKLOADS):
        assert f"`{name}`" in readme, name


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traces_depend_on_the_seed_only(name):
    w = WORKLOADS[name]
    a, b, other = w.trace(5), w.trace(5), w.trace(6)
    assert a.checkpoints == w.checkpoints and a.base.nbytes == w.data_len
    last = w.checkpoints - 1
    final = TraceCursor(a).goto(last).copy()
    assert np.array_equal(final, TraceCursor(b).goto(last))
    assert not np.array_equal(final, TraceCursor(other).goto(last))
    assert not np.array_equal(final, a.base)


def test_cursor_rewinds_to_the_same_bytes():
    w = WORKLOADS["shift_shuffle"]
    cursor = TraceCursor(w.trace(1))
    at_40 = cursor.goto(40).copy()
    cursor.goto(90)
    assert np.array_equal(cursor.goto(40), at_40)
    with pytest.raises(ValueError):
        cursor.goto(w.checkpoints)


# ----------------------------------------------------------------------
# Passes on a miniature workload
# ----------------------------------------------------------------------
def tiny(name: str = "shift_shuffle"):
    return dataclasses.replace(WORKLOADS[name], data_len=256 * 1024, checkpoints=21)


def test_schedule_interleaves_workloads_round_robin():
    order = list(schedule(["a", "b"], {"timing": 4, "traced": 2}))
    assert order[:4] == [("timing", "a", 0), ("timing", "b", 0), ("traced", "a", 0), ("traced", "b", 0)]
    assert [x for x in order if x[0] == "traced"][2:] == [("traced", "a", 1), ("traced", "b", 1)]
    assert order.index(("traced", "a", 1)) > order.index(("timing", "b", 2))
    assert sum(1 for x in order if x[0] == "timing") == 8
    with pytest.raises(ValueError):
        list(schedule(["a"], {"timing": 2, "traced": 3}))


def test_accounting_repeats_exactly_for_a_seed_and_moves_with_it(tmp_path):
    w = tiny()
    first = account(w, w.trace(3), tmp_path / "a")
    again = account(w, w.trace(3), tmp_path / "b")
    other = account(w, w.trace(4), tmp_path / "c")
    first.pop("peak_rss_mb"), again.pop("peak_rss_mb"), other.pop("peak_rss_mb")
    assert first == again
    assert first["failed"] == 0 and first["attempted"] > w.checkpoints
    # The seed chooses bytes, not positions: byte metrics hold across seeds,
    # while counts that see the digests themselves (hash-table probes) move.
    assert first["stored_bytes_per_user_byte"] == other["stored_bytes_per_user_byte"]
    assert first["gpusim.ckpt.random_accesses"] != other["gpusim.ckpt.random_accesses"]


def test_traced_pass_sums_to_its_roots_and_leaves_no_wrapper_behind(tmp_path):
    def current():
        out = []
        for module_name, class_name, attr, _ in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            out.append(vars(owner)[attr])
        return out

    before = current()
    w = tiny()
    run = WorkloadRun(w, w.trace(2), 0.0)
    rounds = {"timing": 2, "cold_start": 1, "traced": 2, "spans_on": 2, "journal_on": 2}
    recorder = SpanRecorder()
    run_passes({w.name: run}, rounds, tmp_path, recorder)
    assert all(now is was for now, was in zip(current(), before))
    assert run.tally.failed == 0 and len(run.cold_start_s) == 1
    assert {kind: len(r) for kind, r in run.rounds.items()} == {
        kind: n for kind, n in rounds.items() if kind != "cold_start"
    }
    # Telemetry on or off, traced or not: the same bytes reach the record.
    assert len({r.chain_digest for rs in run.rounds.values() for r in rs}) == 1

    ops = recorder.operations()
    commits = [op for op in ops if op.name == COMMIT_ROOT and op.context["op"] == "commit"]
    assert len(commits) == 2 * (w.checkpoints - 1)
    assert layers_sum_to_root(ops) < 1e-9
    assert all(op.context["workload"] == w.name for op in ops)

    counts = account(w, run.trace, tmp_path / "acct")
    layers = per_layer(run, counts, ops, native_kernel=True, native_build_s=0.0)
    assert set(layers) == {name for name, *_ in spec.PER_LAYER}
    assert all(np.isfinite(v) for v in layers.values())
    assert 0.0 < layers["bench.unattributed_share"] < 0.5

    recorder.write_chrome_trace(tmp_path / "trace.json")
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert sum(1 for e in events if e["ph"] == "X") == len(recorder.spans)


def test_wrappers_come_off_when_the_wrapped_code_raises():
    from repro.core import store

    original = store.verify_record
    with pytest.raises(Exception):
        with SpanRecorder():
            assert store.verify_record is not original
            store.verify_record("/nonexistent/record")
    assert store.verify_record is original


def test_a_failing_round_is_counted_not_fatal(tmp_path, monkeypatch):
    from repro.core import provenance

    w = tiny()
    run = WorkloadRun(w, w.trace(2), 0.0)

    def wrong_bytes(directory, upto=None, **kwargs):
        out, report = real(directory, upto=upto, **kwargs)
        out[0] ^= 0xFF
        return out, report

    real = provenance.restore_record_indexed
    monkeypatch.setattr(provenance, "restore_record_indexed", wrong_bytes)
    run_passes({w.name: run}, {"timing": 1}, tmp_path, None)
    assert run.tally.failed == 3 + 2 + 4  # every read, mid and latest restore

    def boom(directory, upto=None, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(provenance, "restore_record_indexed", boom)
    run = WorkloadRun(w, run.trace, 0.0)
    run_passes({w.name: run}, {"timing": 1}, tmp_path, None)
    assert run.tally.failed == 1 and run.rounds["timing"] == []
