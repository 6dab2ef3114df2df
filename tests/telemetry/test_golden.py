"""Telemetry must observe, never perturb: golden byte-identity checks."""

import hashlib

import numpy as np

from repro import telemetry
from repro.core import IncrementalCheckpointer
from repro.core.store import load_record


def _tree_run_digests(seed: int = 11, steps: int = 5) -> list:
    """Serialized bytes of every diff in a fixed-seed Tree run."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, 1 << 16, dtype=np.uint8)
    ck = IncrementalCheckpointer(data_len=1 << 16, chunk_size=128, method="tree")
    digests = []
    for _ in range(steps):
        ck.checkpoint(data)
        data = data.copy()
        at = int(rng.integers(0, (1 << 16) - 2048))
        data[at : at + 2048] = rng.integers(0, 256, 2048, dtype=np.uint8)
    for diff in load_record(ck.record.writer.store):
        digests.append(hashlib.sha256(diff.to_bytes()).hexdigest())
    return digests


class TestGoldenBytes:
    def test_tree_bytes_bit_identical_on_vs_off(self):
        telemetry.disable()
        off = _tree_run_digests()
        telemetry.enable()
        on = _tree_run_digests()
        assert on == off

    def test_all_methods_identical_on_vs_off(self):
        for method in ("tree", "list", "basic", "full"):

            def run(method=method):
                rng = np.random.default_rng(7)
                data = rng.integers(0, 256, 1 << 14, dtype=np.uint8)
                ck = IncrementalCheckpointer(
                    data_len=1 << 14, chunk_size=128, method=method
                )
                for _ in range(3):
                    ck.checkpoint(data)
                    data = data.copy()
                    data[:512] = rng.integers(0, 256, 512, dtype=np.uint8)
                return [
                    hashlib.sha256(d.to_bytes()).hexdigest()
                    for d in load_record(ck.record.writer.store)
                ]

            telemetry.disable()
            off = run()
            telemetry.enable()
            on = run()
            assert on == off, f"method {method} bytes changed under telemetry"

    def test_restore_identical_on_vs_off(self):
        def run():
            rng = np.random.default_rng(5)
            data = rng.integers(0, 256, 1 << 14, dtype=np.uint8)
            ck = IncrementalCheckpointer(data_len=1 << 14, chunk_size=128)
            for _ in range(3):
                ck.checkpoint(data)
                data = data.copy()
                data[:256] = rng.integers(0, 256, 256, dtype=np.uint8)
            return ck.restore(2)

        telemetry.disable()
        off = run()
        telemetry.enable()
        on = run()
        np.testing.assert_array_equal(on, off)

    def test_simulated_cost_identical_on_vs_off(self):
        """The sim clock reads the same whether anyone is watching."""

        def run():
            rng = np.random.default_rng(9)
            data = rng.integers(0, 256, 1 << 14, dtype=np.uint8)
            ck = IncrementalCheckpointer(data_len=1 << 14, chunk_size=128)
            total = 0.0
            for _ in range(3):
                total += ck.checkpoint(data).cost.total_seconds
                data = data.copy()
                data[:256] = rng.integers(0, 256, 256, dtype=np.uint8)
            return total

        telemetry.disable()
        off = run()
        telemetry.enable()
        on = run()
        assert on == off
