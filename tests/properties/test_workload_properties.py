"""Property-based tests over random graphs: GDV identities, selective
restore agreement, and analysis invariants."""

import networkx as nx
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ENGINES, Restorer, selective_restore, verify_chain
from repro.graphs import Graph
from repro.oranges import GdvEngine, orbit_counts_0_to_3
from repro.telemetry.attribution import attribute_record
from tests.conftest import ram_record

_SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    p = draw(st.floats(min_value=0.0, max_value=0.4))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    gnx = nx.gnp_random_graph(n, p, seed=seed)
    return gnx, Graph.from_edges(n, gnx.edges())


@given(random_graphs())
@settings(**_SETTINGS)
def test_gdv_orbit_identities(pair):
    """Structural identities every correct GDV must satisfy."""
    gnx, g = pair
    engine = GdvEngine(g, 4)
    engine.run_to_completion()
    m = engine.gdv_matrix().astype(np.int64)
    degrees = np.array([d for _, d in sorted(gnx.degree())], dtype=np.int64)
    triangles = np.array(
        [t for _, t in sorted(nx.triangles(gnx).items())], dtype=np.int64
    )
    assert np.array_equal(m[:, 0], degrees)
    assert np.array_equal(m[:, 3], triangles)
    assert np.array_equal(m[:, 2], degrees * (degrees - 1) // 2 - triangles)
    # Path-end total is twice the path-middle total.
    assert m[:, 1].sum() == 2 * m[:, 2].sum()
    # K4 membership divisible by 4 in total.
    assert m[:, 14].sum() % 4 == 0
    # Closed forms agree with enumeration.
    assert np.array_equal(m[:, :4], orbit_counts_0_to_3(g))


@given(random_graphs())
@settings(**_SETTINGS)
def test_counting_schedules_agree(pair):
    _, g = pair
    a = GdvEngine(g, 4, counting="per-vertex")
    b = GdvEngine(g, 4, counting="rooted")
    a.run_to_completion()
    b.run_to_completion()
    assert np.array_equal(a.gdv_matrix(), b.gdv_matrix())


@st.composite
def diff_chains(draw):
    """Random checkpoint streams run through a random engine."""
    data_len = draw(st.integers(min_value=64, max_value=2048))
    chunk_size = draw(st.sampled_from([32, 64, 96]))
    chunk_size = min(chunk_size, data_len)
    method = draw(st.sampled_from(sorted(ENGINES)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    steps = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(seed)
    engine = ENGINES[method](data_len, chunk_size)
    cur = rng.integers(0, 256, data_len, dtype=np.uint8)
    stream = [cur.copy()]
    diffs = [engine.checkpoint(cur)]
    for _ in range(steps - 1):
        cur = cur.copy()
        span = int(rng.integers(1, max(2, data_len // 3)))
        at = int(rng.integers(0, data_len - span + 1))
        if rng.random() < 0.5:
            cur[at : at + span] = rng.integers(0, 256, span, dtype=np.uint8)
        else:
            src = int(rng.integers(0, data_len - span + 1))
            cur[at : at + span] = cur[src : src + span].copy()
        stream.append(cur.copy())
        diffs.append(engine.checkpoint(cur))
    return stream, diffs


@given(diff_chains())
@settings(**_SETTINGS)
def test_selective_equals_chain_restore(case):
    stream, diffs = case
    chain = Restorer().restore_all(diffs)
    for k in range(len(diffs)):
        assert np.array_equal(selective_restore(diffs, k), chain[k])
        assert np.array_equal(chain[k], stream[k])


@given(diff_chains())
@settings(**_SETTINGS)
def test_engine_chains_always_verify(case):
    _, diffs = case
    assert verify_chain(diffs) == []


@given(diff_chains())
@settings(**_SETTINGS)
def test_composition_partitions_every_diff(case):
    _, diffs = case
    for comp in attribute_record(ram_record(diffs), emit=False).checkpoints:
        assert (
            comp.first_bytes + comp.shift_bytes + comp.fixed_bytes + comp.zero_bytes
            == comp.data_len
        )
        assert comp.first_bytes >= 0
        assert comp.shift_bytes >= 0
        assert comp.fixed_bytes >= 0
        assert comp.zero_bytes >= 0
