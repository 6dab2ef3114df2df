"""Tests for DigestMap — the UnorderedMap stand-in.

The crucial contract is GPU first-CAS-wins semantics reproduced
deterministically: within a batch the lowest row index holding a digest
wins and every loser observes the winner's value.

The three probing cores run as compiled kernels when the native object
loaded and as the NumPy round loops otherwise.  The two must agree on
every output, on the table arrays bit for bit and on the probe count
gpusim prices, so everything here runs on both paths: the original
classes on whichever path the host loads (native wherever there is a
compiler) plus a ``...OnNumpy`` twin of each pinned to the reference
loops, the new classes through the ``dispatch`` fixture, and one
differential test that drives a map per path through the same operations.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, ConfigurationError
from repro.hashing import hash_chunks, native
from repro.kokkos import DigestMap
from tests.conftest import numpy_path


@pytest.fixture
def on_numpy():
    with numpy_path():
        yield


@pytest.fixture(params=["native", "numpy"])
def dispatch(request):
    """Run the test body once per dispatch path."""
    if request.param == "native":
        if not native.native_available():
            pytest.skip("no C compiler / native kernel in this environment")
        yield request.param
    else:
        with numpy_path():
            yield request.param


def make_keys(rng, n, tag=0):
    data = rng.integers(0, 256, 64 * n, dtype=np.uint8)
    data[0] = tag % 256  # decorrelate batches
    return hash_chunks(data, 64)


def make_vals(n, ckpt=0, base=0):
    vals = np.empty((n, 2), dtype=np.int64)
    vals[:, 0] = np.arange(base, base + n)
    vals[:, 1] = ckpt
    return vals


class TestBasics:
    def test_fresh_map_empty(self):
        m = DigestMap(16)
        assert len(m) == 0
        assert m.load_factor == 0.0

    def test_insert_then_lookup(self, rng):
        m = DigestMap(64)
        keys = make_keys(rng, 10)
        vals = make_vals(10)
        success, out = m.insert(keys, vals)
        assert success.all()
        assert (out == vals).all()
        found, got = m.lookup(keys)
        assert found.all()
        assert (got == vals).all()

    def test_lookup_missing(self, rng):
        m = DigestMap(64)
        m.insert(make_keys(rng, 5, tag=1), make_vals(5))
        found, _ = m.lookup(make_keys(rng, 5, tag=2))
        assert not found.any()

    def test_contains(self, rng):
        m = DigestMap(64)
        keys = make_keys(rng, 4)
        m.insert(keys, make_vals(4))
        probe = np.concatenate([keys[:2], make_keys(rng, 2, tag=9)])
        assert m.contains(probe).tolist() == [True, True, False, False]

    def test_empty_batch(self):
        m = DigestMap(16)
        success, out = m.insert(
            np.empty((0, 2), dtype=np.uint64), np.empty((0, 2), dtype=np.int64)
        )
        assert success.shape == (0,)
        assert out.shape == (0, 2)

    def test_scalar_helpers(self, rng):
        m = DigestMap(16)
        key = make_keys(rng, 1)[0]
        assert m.insert_one(key, (7, 3)) is True
        assert m.insert_one(key, (9, 9)) is False
        assert m.get(key).tolist() == [7, 3]
        assert m.get(make_keys(rng, 1, tag=5)[0]) is None

    def test_clear(self, rng):
        m = DigestMap(32)
        keys = make_keys(rng, 8)
        m.insert(keys, make_vals(8))
        m.clear()
        assert len(m) == 0
        assert not m.contains(keys).any()


class TestFirstWinsSemantics:
    def test_reinsert_fails_and_returns_winner(self, rng):
        m = DigestMap(64)
        keys = make_keys(rng, 6)
        first = make_vals(6, ckpt=0)
        m.insert(keys, first)
        success, out = m.insert(keys, make_vals(6, ckpt=1, base=100))
        assert not success.any()
        assert (out == first).all()

    def test_within_batch_duplicate_lowest_row_wins(self, rng):
        m = DigestMap(64)
        base = make_keys(rng, 3)
        keys = np.concatenate([base, base])  # rows 3-5 duplicate 0-2
        vals = make_vals(6)
        success, out = m.insert(keys, vals)
        assert success.tolist() == [True, True, True, False, False, False]
        assert (out[3:] == vals[:3]).all()

    def test_interleaved_duplicates(self, rng):
        m = DigestMap(64)
        k = make_keys(rng, 2)
        keys = np.stack([k[0], k[1], k[0], k[1], k[0]]).astype(np.uint64)
        vals = make_vals(5)
        success, out = m.insert(keys, vals)
        assert success.tolist() == [True, True, False, False, False]
        assert out[2].tolist() == vals[0].tolist()
        assert out[4].tolist() == vals[0].tolist()

    def test_matches_python_dict_over_many_batches(self, rng):
        m = DigestMap(512)
        ref = {}
        pool = make_keys(rng, 300)
        for batch in range(15):
            take = rng.integers(0, 300, 40)
            keys = np.ascontiguousarray(pool[take])
            vals = make_vals(40, ckpt=batch, base=batch * 1000)
            success, out = m.insert(keys, vals)
            for i in range(40):
                key = (int(keys[i, 0]), int(keys[i, 1]))
                if key not in ref:
                    ref[key] = tuple(int(x) for x in vals[i])
                    assert success[i]
                else:
                    assert not success[i]
                assert tuple(int(x) for x in out[i]) == ref[key]
        assert len(m) == len(ref)


class TestCapacity:
    def test_auto_grow(self, rng):
        m = DigestMap(capacity_hint=4)
        keys = make_keys(rng, 500)
        m.insert(keys, make_vals(500))
        assert len(m) == 500
        assert m.contains(keys).all()
        assert m.load_factor <= m.max_load_factor

    def test_growth_preserves_entries(self, rng):
        m = DigestMap(capacity_hint=8)
        keys = make_keys(rng, 20)
        vals = make_vals(20)
        m.insert(keys[:10], vals[:10])
        m.insert(keys[10:], vals[10:])  # may trigger growth
        found, out = m.lookup(keys)
        assert found.all()
        assert (out == vals).all()

    def test_growth_rehash_fast_path(self, rng):
        """Growth rebuilds via the direct re-hash path: every surviving
        entry keeps its exact value, capacity actually grew, and the
        rebuilt table still resolves duplicate-heavy batches first-wins."""
        m = DigestMap(capacity_hint=1)  # minimum-size table
        keys = make_keys(rng, 300)
        vals = make_vals(300, ckpt=5)
        cap_before = m.capacity
        m.insert(keys, vals)
        assert m.capacity > cap_before  # growth definitely happened
        assert len(m) == 300
        found, out = m.lookup(keys)
        assert found.all()
        assert (out == vals).all()

        # Duplicates of pre-growth keys still lose to the stored winners.
        success, out2 = m.insert(keys, make_vals(300, ckpt=9, base=10_000))
        assert not success.any()
        assert (out2 == vals).all()
        assert len(m) == 300

    def test_growth_during_duplicate_batch(self, rng):
        """A batch whose duplicates force conservative growth mid-insert
        resolves identically to the no-growth case."""
        keys = make_keys(rng, 40)
        dup = np.concatenate([keys, keys, keys])
        vals = make_vals(120)
        small = DigestMap(capacity_hint=1)
        big = DigestMap(capacity_hint=4096)
        s_small = small.insert(dup, vals)
        s_big = big.insert(dup, vals)
        assert np.array_equal(s_small[0], s_big[0])
        assert np.array_equal(s_small[1], s_big[1])
        assert len(small) == len(big) == 40

    def test_fixed_capacity_overflows(self, rng):
        m = DigestMap(capacity_hint=8, auto_grow=False)
        keys = make_keys(rng, 200)
        with pytest.raises(CapacityError):
            m.insert(keys, make_vals(200))

    def test_capacity_is_power_of_two(self):
        assert DigestMap(100).capacity & (DigestMap(100).capacity - 1) == 0

    def test_bad_load_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            DigestMap(16, max_load_factor=0.99)


class TestIntrospection:
    def test_items_roundtrip(self, rng):
        m = DigestMap(64)
        keys = make_keys(rng, 12)
        vals = make_vals(12)
        m.insert(keys, vals)
        got_keys, got_vals = m.items()
        order = np.argsort(got_vals[:, 0])
        assert (got_vals[order] == vals).all()

    def test_probe_counter_monotone(self, rng):
        m = DigestMap(64)
        before = m.total_probes
        m.insert(make_keys(rng, 10), make_vals(10))
        mid = m.total_probes
        assert mid > before
        m.lookup(make_keys(rng, 10))
        assert m.total_probes > mid

    def test_nbytes_positive(self):
        assert DigestMap(16).nbytes > 0

    def test_value_shape_validated(self, rng):
        m = DigestMap(16)
        with pytest.raises(ConfigurationError):
            m.insert(make_keys(rng, 3), np.zeros((3, 1), dtype=np.int64))


# ----------------------------------------------------------------------
# The same 22 tests, pinned to the NumPy reference loops
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("on_numpy")
class TestBasicsOnNumpy(TestBasics):
    pass


@pytest.mark.usefixtures("on_numpy")
class TestFirstWinsSemanticsOnNumpy(TestFirstWinsSemantics):
    pass


@pytest.mark.usefixtures("on_numpy")
class TestCapacityOnNumpy(TestCapacity):
    pass


@pytest.mark.usefixtures("on_numpy")
class TestIntrospectionOnNumpy(TestIntrospection):
    pass


# ----------------------------------------------------------------------
# Round timing, guards and buffer handling — by construction, both paths
# ----------------------------------------------------------------------
def key_at(home, ident):
    """A digest whose home slot is *home* in any table of up to 2**20 slots."""
    return [(ident << 20) | home, ident * 0x9E3779B97F4A7C15 % 2**64]


def keys_at(*home_ident_pairs):
    return np.array([key_at(h, i) for h, i in home_ident_pairs], dtype=np.uint64)


def table_of(m):
    """Everything the two paths must agree on after an operation."""
    occupied = m._state == 1
    return (
        len(m),
        m.capacity,
        m.total_probes,
        m._state.tobytes(),
        m._keys[occupied].tobytes(),
        m._vals[occupied].tobytes(),
    )


class TestRoundTiming:
    """The kernels are round-synchronous, not row-sequential: who owns a
    slot, and what the walk there is charged, depend on the round a row
    arrives in."""

    def test_lower_row_arriving_later_loses_the_slot(self, dispatch):
        m = DigestMap(64)
        assert m.capacity == 128
        m.insert(keys_at((10, 1), (11, 2)), make_vals(2))  # occupy slots 10, 11
        before = m.total_probes
        # Row 0 starts at 10 and reaches slot 12 in round 3; row 1 starts at
        # 12 and claimed it in round 1.  A row-at-a-time loop would hand
        # slot 12 to row 0.
        batch = keys_at((10, 3), (12, 4))
        success, out = m.insert_or_lookup(batch, make_vals(2, ckpt=1, base=50))
        assert success.tolist() == [True, True]
        assert out.tolist() == [[50, 1], [51, 1]]
        assert m._keys[12].tolist() == batch[1].tolist()
        assert m._keys[13].tolist() == batch[0].tolist()
        assert m._state[10:15].tolist() == [1, 1, 1, 1, 0]
        # Rounds inspect {10, 12}, {11}, {12}, {13}.
        assert m.total_probes - before == 5

    def test_duplicates_of_an_absent_digest_resolve_a_round_later(self, dispatch):
        m = DigestMap(64)
        batch = keys_at((7, 1), (7, 1), (7, 1))
        success, out = m.insert_or_lookup(batch, make_vals(3, ckpt=2, base=30))
        assert success.tolist() == [True, False, False]
        assert out.tolist() == [[30, 2]] * 3
        assert len(m) == 1
        # Round 1: three rows on slot 7 coalesce into one access and one
        # CAS.  Round 2: the two losers coalesce again and match the
        # winner.  Row-sequential would charge 3, same-round visibility 1.
        assert m.total_probes == 2

    def test_probe_path_wraps_past_the_last_slot(self, dispatch):
        m = DigestMap(64)
        last = m.capacity - 1
        batch = keys_at((last, 1), (last, 2), (last, 3))
        success, _ = m.insert_or_lookup(batch, make_vals(3))
        assert success.all()
        assert m._state[[last, 0, 1, 2]].tolist() == [1, 1, 1, 0]
        assert m._keys[1].tolist() == batch[2].tolist()
        # Rounds inspect {last}, {last}, {0}, {0}, {1}: CAS losers re-read
        # the slot they lost before advancing.
        assert m.total_probes == 5
        found, values = m.lookup(batch[::-1])
        assert found.all()
        assert values[:, 0].tolist() == [2, 1, 0]
        assert m.total_probes == 5 + 3 + 2 + 1

    def test_rehash_arbitrates_in_pending_order(self, dispatch):
        # The growth rebuild queues advancers ahead of CAS losers and gives
        # a slot to the first row in *that* order.  Homes 20 21 21 21 20:
        # round 3 leaves row 3 a loser on slot 22 while row 4 advances onto
        # it, so row 4 goes ahead, and in round 5 takes slot 23 from the
        # lower row 3 — lowest-row-id arbitration would swap the two.
        m = DigestMap(64)
        keys = keys_at((20, 1), (21, 2), (21, 3), (21, 4), (20, 5))
        m._reinsert_unique(keys, make_vals(5))
        assert len(m) == 5
        assert m._vals[20:25, 0].tolist() == [0, 1, 2, 4, 3]
        assert m._keys[23].tolist() == keys[4].tolist()
        # Every pending row is charged every round: 5 + 3 + 3 + 2 + 2 + 1 + 1.
        assert m.total_probes == 17


class TestGuards:
    def test_over_capacity_without_growth(self, dispatch, rng):
        m = DigestMap(capacity_hint=8, auto_grow=False)
        m.insert(make_keys(rng, 4), make_vals(4))
        before = table_of(m)
        with pytest.raises(CapacityError, match=r"over capacity: need 204 entries, have 16 slots"):
            m.insert(make_keys(rng, 200, tag=1), make_vals(200))
        assert table_of(m) == before

    def test_full_table_trips_the_probe_guard(self, dispatch):
        m = DigestMap(capacity_hint=1, auto_grow=False)
        m._state[:] = 1  # no API call can fill a table; force it
        before = table_of(m)
        with pytest.raises(CapacityError, match=r"probe did not terminate \(table full\?\)"):
            m.lookup(keys_at((0, 1), (5, 2)))
        # Both keys were charged capacity + 1 inspections before the guard.
        assert m.total_probes == 2 * (m.capacity + 1)
        assert table_of(m)[3:] == before[3:]

    def test_full_table_trips_the_insert_guard(self, dispatch):
        m = DigestMap(capacity_hint=1, auto_grow=False)
        m._state[:] = 1
        before = table_of(m)
        with pytest.raises(CapacityError, match=r"insert did not terminate \(table full\?\)"):
            m.insert_or_lookup(keys_at((6, 1)), make_vals(1))
        assert m.total_probes == 2 * m.capacity + 2
        assert len(m) == 0
        assert table_of(m)[3:] == before[3:]


class TestBufferHandling:
    """Strided or mistyped caller buffers give the reference results: the
    wrapper makes them contiguous int64 / uint64 before any kernel runs."""

    def test_strided_keys_and_int32_values(self, dispatch, rng):
        n = 40
        wide_keys = np.zeros((2 * n, 4), dtype=np.uint64)
        wide_keys[::2, 1:3] = make_keys(rng, n)
        keys = wide_keys[::2, 1:3]
        wide_vals = rng.integers(0, 1000, (n, 4)).astype(np.int32)
        values = wide_vals[:, ::2]
        assert not keys.flags.c_contiguous and not values.flags.c_contiguous

        m, ref = DigestMap(8), DigestMap(8)
        got = m.insert_or_lookup(keys, values)
        want = ref.insert_or_lookup(
            np.ascontiguousarray(keys), np.ascontiguousarray(values, dtype=np.int64)
        )
        assert got[1].dtype == np.int64
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert table_of(m) == table_of(ref)

        found, out = m.lookup(keys[::-1])
        assert found.all()
        assert np.array_equal(out, values[::-1])
        assert m.contains(wide_keys[:, 1:3]).tolist() == [True, False] * n

    def test_read_only_inputs(self, dispatch, rng):
        keys, values = make_keys(rng, 12), make_vals(12)
        keys.setflags(write=False)
        values.setflags(write=False)
        m = DigestMap(8)
        assert m.insert(keys, values)[0].all()
        assert m.lookup(keys)[0].all()


# ----------------------------------------------------------------------
# Differential: one map per path, same operations, equal everything
# ----------------------------------------------------------------------
_POOL = 48
# Home slots the pool clusters on: one run in the middle, one that wraps
# past the last slot at every capacity the test reaches, and a few loners.
_HOMES = [5, 5, 5, 5, 6, 7, 2**20 - 1, 2**20 - 1, 2**20 - 2, 300, 9000]

_pool_homes = st.lists(st.sampled_from(_HOMES), min_size=_POOL, max_size=_POOL)
_operation = st.tuples(
    st.sampled_from(["insert_or_lookup", "insert_or_lookup", "lookup", "contains"]),
    # Few distinct ids per batch: in-batch duplicates are the common case.
    st.lists(st.integers(0, _POOL - 1), min_size=0, max_size=90),
)


@given(homes=_pool_homes, operations=st.lists(_operation, min_size=1, max_size=8))
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_native_and_numpy_paths_are_bit_identical(homes, operations):
    if not native.native_available():
        pytest.skip("no C compiler / native kernel in this environment")
    pool = keys_at(*((home, ident) for ident, home in enumerate(homes, start=1)))
    # An 8-slot table: 90-row batches force several growth rebuilds.
    fast = DigestMap(capacity_hint=1)
    with numpy_path():
        ref = DigestMap(capacity_hint=1)
    assert fast.capacity == ref.capacity == 8

    for step, (kind, ids) in enumerate(operations):
        keys = pool[ids].reshape(len(ids), 2)
        args = (keys,)
        if kind == "insert_or_lookup":
            args += (make_vals(len(ids), ckpt=step, base=1000 * step),)
        got = getattr(fast, kind)(*args)
        with numpy_path():
            want = getattr(ref, kind)(*args)
        if kind == "contains":
            got, want = (got,), (want,)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w), (step, kind)
        assert table_of(fast) == table_of(ref), (step, kind)
