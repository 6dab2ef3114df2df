"""The native loader: one cached object keyed on the sources it was built
from, and a broken build that says so instead of quietly timing NumPy.

Both dispatch paths give equal results by design, so nothing else in the
suite can notice that the kernels failed to build — these tests are what
does.
"""

import hashlib
import os

import pytest

from repro.hashing import native


@pytest.fixture
def compiler():
    cc = native._compiler()
    if cc is None:
        pytest.skip("no C compiler in this environment")
    return cc


@pytest.fixture
def scratch_loader(tmp_path, monkeypatch):
    """Point the loader at *tmp_path* with a clean slate; returns a function
    installing the given C sources there."""
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.setattr(native, "_HERE", tmp_path)
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "build_error", None)

    def install(*texts):
        sources = []
        for i, text in enumerate(texts):
            path = tmp_path / f"source{i}.c"
            path.write_text(text)
            sources.append(path)
        monkeypatch.setattr(native, "_SOURCES", tuple(sources))

    return install


def test_kernels_load_wherever_a_compiler_exists(compiler):
    if os.environ.get("REPRO_NO_NATIVE"):
        pytest.skip("REPRO_NO_NATIVE is set: the fallback was asked for")
    assert native.native_available(), (
        f"{compiler} was found but the native kernels are unavailable:\n"
        f"{native.build_error}"
    )
    assert native.build_error is None
    # Every entry point by name: an object that lacks one says which.
    lib = native.get_lib()
    for symbol in (
        "hb_hash_rows", "hb_hash_chunks", "hb_hash_pairs",
        "dm_probe", "dm_insert_or_lookup", "dm_reinsert_unique",
        "tp_leaf_classify", "tp_leaf_apply", "tp_first_pass", "tp_shift_pass",
        "ga_place_chunks",
    ):
        assert hasattr(lib, symbol), symbol


def test_object_is_keyed_on_its_sources_not_on_mtime(compiler, scratch_loader, tmp_path):
    real = [source.read_text() for source in native._SOURCES]
    scratch_loader(*real)
    for stale in ("_murmur3_native", "_murmur3_native-0123456789ab"):
        (tmp_path / (stale + native._SUFFIX)).write_bytes(b"not an object")

    assert native.get_lib() is not None, native.build_error
    digest = hashlib.sha256("".join(real).encode()).hexdigest()[:12]
    so_path = native._so_path()
    assert so_path.name == f"_murmur3_native-{digest}{native._SUFFIX}"
    # Objects of other source versions are gone, the temp file too.
    assert [p for p in tmp_path.iterdir() if p.suffix != ".c"] == [so_path]

    # An mtime shuffle (cp -r, tarball, rsync -t) is not a new version ...
    built_at = so_path.stat().st_mtime_ns
    for source in native._SOURCES:
        os.utime(source, ns=(built_at + 10**12, built_at + 10**12))
    native._lib = None
    assert native.get_lib() is not None
    assert so_path.stat().st_mtime_ns == built_at
    # ... and an edit is, whatever the clock says.
    native._SOURCES[1].write_text(real[1] + "\n/* edited */\n")
    os.utime(native._SOURCES[1], ns=(0, 0))
    assert native._so_path() != so_path


def test_failed_build_keeps_the_compilers_stderr(compiler, scratch_loader, tmp_path):
    scratch_loader("int broken( { this is not C\n")
    assert native.get_lib() is None
    assert not native.native_available()
    assert "error" in native.build_error and "source0.c" in native.build_error
    assert [p.name for p in tmp_path.iterdir()] == ["source0.c"]


def test_missing_symbol_is_reported(compiler, scratch_loader):
    scratch_loader("void hb_hash_rows(void) {}\n")
    assert native.get_lib() is None
    assert "hb_hash_chunks" in native.build_error


def test_opt_out_and_no_compiler_stay_silent(scratch_loader, monkeypatch):
    scratch_loader("int broken( {\n")
    monkeypatch.setattr(native, "_compiler", lambda: None)
    assert native.get_lib() is None
    assert native.build_error is None

    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_compiler", lambda: "cc")
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    assert native.get_lib() is None
    assert native.build_error is None
