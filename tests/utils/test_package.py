"""Package-level tests: public API surface, version, error hierarchy."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import errors


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_headline_exports(self):
        for name in (
            "IncrementalCheckpointer",
            "TreeDedup",
            "ListDedup",
            "BasicDedup",
            "FullCheckpoint",
            "CheckpointDiff",
            "Restorer",
            "CompressionCheckpointer",
            "OrangesApp",
        ):
            assert hasattr(repro, name), name

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackages_importable(self):
        import repro.bench
        import repro.compress
        import repro.core
        import repro.gpusim
        import repro.graphs
        import repro.hashing
        import repro.kokkos
        import repro.oranges
        import repro.runtime

    def test_cli_importable(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.prog == "repro"

    def test_import_repro_does_not_load_scipy(self):
        # ``import repro`` is the cold start every CLI call and benchmark
        # set-up pays; scipy (one use, in oranges.formulas) loads on use.
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestPackageData:
    def test_every_c_source_ships_in_a_wheel(self):
        # The native kernels build on demand from their sources, so a
        # non-editable install that lacks one falls back to NumPy silently.
        package = Path(repro.__file__).resolve().parent
        pyproject = (package.parents[1] / "pyproject.toml").read_text()
        section = pyproject.split("[tool.setuptools.package-data]")[1].split("\n[")[0]
        declared = re.search(r"^repro\s*=\s*\[(.*?)\]", section, re.M | re.S).group(1)
        globs = re.findall(r'"([^"]+)"', declared)
        shipped = {path for glob in globs for path in package.glob(glob)}
        sources = set(package.rglob("*.c"))
        assert len(sources) >= 2, sources
        assert sources <= shipped, sorted(sources - shipped)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "ConfigurationError",
            "CapacityError",
            "ChunkingError",
            "SerializationError",
            "RestoreError",
            "CompressionError",
            "GraphError",
            "SimulationError",
            "StorageError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_catchable_as_base(self):
        from repro.core import ChunkSpec

        with pytest.raises(errors.ReproError):
            ChunkSpec(10, 20)

    def test_distinct_types(self):
        assert errors.ChunkingError is not errors.RestoreError
        with pytest.raises(errors.ChunkingError):
            raise errors.ChunkingError("x")
