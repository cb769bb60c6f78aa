import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgstate.geometry import (
    TWO_PI,
    Cutoff,
    Disordered,
    EdgeProfile,
    Exponential,
    Lattice,
    PhaseProfile,
    PowerLaw,
    Table,
    centered_block,
)
from wgstate import graphstate
from wgstate.graphstate import (
    BinaryMatrix,
    NotAGraphStateError,
    adjacency_from_profile,
    analytic_block_entropy,
    block_adjacency,
    block_slice,
    connected_vertex_count,
    gf2_rank,
    graph_block_entropy,
    read_edge_list,
    write_edge_list,
)


def dense_gf2_rank(a):
    """Plain dense elimination mod 2, as an independent check."""
    a = (np.asarray(a) % 2).astype(np.uint8).copy()
    rank = 0
    for col in range(a.shape[1]):
        rows = np.nonzero(a[rank:, col])[0]
        if rows.size == 0:
            continue
        pivot = rank + rows[0]
        a[[rank, pivot]] = a[[pivot, rank]]
        hits = np.nonzero(a[:, col])[0]
        a[hits[hits != rank]] ^= a[rank]
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def test_binary_matrix_roundtrip():
    rng = np.random.default_rng(41)
    for n_cols in (1, 7, 64, 65, 130):
        dense = rng.integers(0, 2, size=(5, n_cols))
        mat = BinaryMatrix.from_dense(dense)
        assert mat.n_rows == 5 and mat.n_cols == n_cols
        assert np.array_equal(mat.to_dense(), dense)


def test_binary_matrix_get_set():
    mat = BinaryMatrix.zeros(3, 100)
    mat.set(1, 0)
    mat.set(1, 63)
    mat.set(2, 64)
    mat.set(2, 99)
    assert mat.get(1, 0) == 1 and mat.get(1, 63) == 1
    assert mat.get(1, 64) == 0
    assert mat.get(2, 64) == 1 and mat.get(2, 99) == 1
    mat.set(1, 63, 0)
    assert mat.get(1, 63) == 0
    assert np.array_equal(mat.row_any(), [False, True, True])


def test_binary_matrix_validates():
    with pytest.raises(ValueError):
        BinaryMatrix(np.zeros((2, 1), dtype=np.uint64), n_cols=65)
    with pytest.raises(ValueError):
        BinaryMatrix.from_dense(np.zeros(4))


def test_gf2_rank_small_cases():
    assert gf2_rank(np.eye(5)) == 5
    assert gf2_rank(np.ones((2, 2))) == 1
    assert gf2_rank(np.zeros((3, 4))) == 0
    # over GF(2), [[1,1],[1,1],[0,0]] has a single independent row
    assert gf2_rank(np.array([[1, 1], [1, 1], [0, 0]])) == 1
    # XOR dependency: row3 = row1 ^ row2
    m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert gf2_rank(m) == 2


def test_gf2_rank_matches_dense_elimination():
    rng = np.random.default_rng(43)
    for _ in range(25):
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 150)))
        dense = rng.integers(0, 2, size=shape)
        assert gf2_rank(dense) == dense_gf2_rank(dense)


def test_gf2_rank_transpose_invariant():
    rng = np.random.default_rng(45)
    for _ in range(15):
        dense = rng.integers(0, 2, size=(int(rng.integers(1, 10)),
                                         int(rng.integers(1, 90))))
        assert gf2_rank(dense) == gf2_rank(dense.T)


def test_adjacency_from_nearest_neighbor_profile():
    lat = Lattice(5)
    prof = PhaseProfile(lat, Cutoff(reach=1.0), time=math.pi)
    dense = adjacency_from_profile(prof).to_dense()
    expected = np.zeros((5, 5), dtype=int)
    for k in range(4):
        expected[k, k + 1] = expected[k + 1, k] = 1
    assert np.array_equal(dense, expected)


def test_adjacency_band_width_follows_reach():
    lat = Lattice(9)
    prof = PhaseProfile(lat, Cutoff(reach=2.0), time=math.pi)
    dense = adjacency_from_profile(prof).to_dense()
    assert np.array_equal(dense, dense.T)
    assert not dense.diagonal().any()
    assert dense[4].sum() == 4  # two neighbors on each side


def test_adjacency_rejects_generic_phases():
    lat = Lattice(6)
    prof = PhaseProfile(lat, PowerLaw(alpha=3.0), time=0.3 * math.pi)
    with pytest.raises(NotAGraphStateError):
        adjacency_from_profile(prof)
    with pytest.raises(NotAGraphStateError):
        block_adjacency(prof, [2, 3])


def test_adjacency_from_edge_profile():
    prof = EdgeProfile.from_edges(5, [(0, 4), (1, 2)])
    dense = adjacency_from_profile(prof).to_dense()
    expected = np.zeros((5, 5), dtype=int)
    expected[0, 4] = expected[4, 0] = 1
    expected[1, 2] = expected[2, 1] = 1
    assert np.array_equal(dense, expected)


def test_block_adjacency_equals_full_slice():
    rng = np.random.default_rng(47)
    for _ in range(8):
        n = int(rng.integers(6, 30))
        lat = Lattice(n, str(rng.choice(["open", "periodic"])))
        prof = PhaseProfile(lat, Cutoff(reach=float(rng.integers(1, 4))),
                            time=math.pi)
        size = int(rng.integers(1, 5))
        block = rng.choice(n, size=size, replace=False)
        direct = block_adjacency(prof, block)
        sliced = block_slice(adjacency_from_profile(prof), block)
        assert np.array_equal(direct.to_dense(), sliced.to_dense())


def test_block_adjacency_validates():
    lat = Lattice(10)
    prof = PhaseProfile(lat, Cutoff(reach=1.0), time=math.pi)
    with pytest.raises(ValueError):
        block_adjacency(prof, [])
    with pytest.raises(ValueError):
        block_adjacency(prof, [3, 3])
    with pytest.raises(ValueError):
        block_adjacency(prof, [10])
    with pytest.raises(ValueError):
        block_slice(block_adjacency(prof, [0, 1]), [0])


def test_graph_block_entropy_isolated_block():
    prof = EdgeProfile.from_edges(6, [(0, 1)])
    adj = adjacency_from_profile(prof)
    assert graph_block_entropy(adj, [3, 4]) == 0


def test_graph_block_entropy_interior_chain_block():
    lat = Lattice(40)
    prof = PhaseProfile(lat, Cutoff(reach=1.0), time=math.pi)
    adj = adjacency_from_profile(prof)
    gamma = block_slice(adj, np.arange(10, 20))
    assert graph_block_entropy(adj, np.arange(10, 20)) == 2
    assert connected_vertex_count(gamma) == 2


def test_graph_block_entropy_wide_band():
    lat = Lattice(40)
    prof = PhaseProfile(lat, Cutoff(reach=3.0), time=math.pi)
    adj = adjacency_from_profile(prof)
    assert graph_block_entropy(adj, np.arange(15, 25)) == 6


def test_graph_block_entropy_square_block():
    lat = Lattice((12, 12))
    prof = PhaseProfile(lat, Cutoff(reach=1.0), time=math.pi)
    block = centered_block(lat, 3)
    rank = gf2_rank(block_adjacency(prof, block))
    assert rank == 8
    assert rank == analytic_block_entropy(2, 3, 1.0)


def test_rank_degenerate_below_vertex_count():
    # two block sites with identical edge patterns: 2 connected vertices
    # but only 1 independent row
    prof = EdgeProfile.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    gamma = block_adjacency(prof, [0, 1])
    assert connected_vertex_count(gamma) == 2
    assert gf2_rank(gamma) == 1


def test_analytic_block_entropy_values():
    assert analytic_block_entropy(1, 10, 2.0) == 4
    assert analytic_block_entropy(2, 4, 1.0) == 12
    assert analytic_block_entropy(3, 4, 1.0) == 56
    assert analytic_block_entropy(2, 4, 0.0) == 0
    # reach covering the whole box: every site counts
    assert analytic_block_entropy(2, 3, 5.0) == 9
    with pytest.raises(ValueError):
        analytic_block_entropy(0, 4, 1.0)
    with pytest.raises(ValueError):
        analytic_block_entropy(2, 4, -1.0)


def test_rank_matches_analytic_across_dimensions():
    rng = np.random.default_rng(49)
    for dim in (1, 2, 3):
        for reach in (1, 2, 3):
            side = int(rng.integers(2, 5))
            extent = side + 2 * reach + 2
            lat = Lattice((extent,) * dim)
            prof = PhaseProfile(lat, Cutoff(reach=float(reach)), time=math.pi)
            block = centered_block(lat, side)
            rank = gf2_rank(block_adjacency(prof, block))
            assert rank == analytic_block_entropy(dim, side, reach)


def test_rank_matches_analytic_on_periodic_lattice():
    lat = Lattice((6, 6), "periodic")
    prof = PhaseProfile(lat, Cutoff(reach=1.0), time=math.pi)
    block = centered_block(lat, 2)
    assert gf2_rank(block_adjacency(prof, block)) == analytic_block_entropy(
        2, 2, 1.0)


def reference_adjacency(profile, block, tol=1e-9):
    """Block-to-environment words from one ``profile.phase`` call per pair.

    Returns (words, None), or (None, (k, l)) for the first pair, in block
    order and then ascending environment site, whose phase is neither 0
    nor pi within ``tol``.
    """
    inside = set(int(k) for k in block)
    env = [l for l in range(profile.n_sites) if l not in inside]
    words = np.zeros((len(block), max((len(env) + 63) // 64, 1)), dtype=np.uint64)
    for i, k in enumerate(block):
        for j, l in enumerate(env):
            phi = profile.phase(int(k), l)
            if abs(phi - math.pi) <= tol:
                words[i, j // 64] |= np.uint64(1 << (j % 64))
            elif tol < phi < TWO_PI - tol:
                return None, (int(k), l)
    return words, None


_BOUNDARIES = st.sampled_from(["open", "periodic"])


@st.composite
def graph_profiles(draw):
    """A 1-3 D lattice of at most 60 sites with open, periodic or mixed axes,
    under a law evaluated at t = pi: mostly graph states, sometimes not."""
    dim = draw(st.integers(1, 3))
    limit = {1: 60, 2: 8, 3: 4}[dim]
    extents = tuple(draw(st.lists(st.integers(1, limit), min_size=dim, max_size=dim)))
    if math.prod(extents) < 2:
        extents = extents[:-1] + (2,)
    lattice = Lattice(extents, tuple(draw(st.lists(_BOUNDARIES, min_size=dim,
                                                   max_size=dim))))
    kind = draw(st.sampled_from(["cutoff", "table", "exponential", "disordered",
                                 "edges"]))
    if kind == "edges":
        n = lattice.n_sites
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1])
        return EdgeProfile.from_edges(n, draw(st.lists(pairs, max_size=2 * n)))
    reaches = st.sampled_from([1.0, 1.5, 2.0, 2.3, 3.0, 0.5, 4.5, 8.0])
    if kind == "cutoff":
        law = Cutoff(draw(reaches))
    elif kind == "table":
        # strength 1 or 3 is an edge, 0 or 2 none, 0.5 not a graph state;
        # the phases of 1 + 1e-12 and 2 - 1e-12 lie within the tolerance
        # of pi and of a full turn
        reach = np.unique(lattice.distances(0, np.arange(1, lattice.n_sites)))
        strengths = st.sampled_from([0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 0.5,
                                     1.0 + 1e-12, 2.0 - 1e-12])
        law = Table({float(r): draw(strengths) for r in reach})
    elif kind == "exponential":
        # exp(-kappa r) * pi is not a graph-state phase until it underflows
        # below the tolerance, so near sites raise and far ones do not
        law = Exponential(draw(st.floats(0.5, 40.0)))
    else:
        law = Disordered(Cutoff(draw(reaches)), seed=draw(st.integers(0, 9)),
                         amplitude=(1.0, 1.0))
    return PhaseProfile(lattice, law, time=math.pi)


@st.composite
def blocks(draw, n, extents):
    """A box, scattered sites in any order, a single site, or all sites but one."""
    shape = draw(st.sampled_from(["box", "scattered", "single", "all_but_one"]))
    if shape == "box":
        start = [draw(st.integers(0, e - 1)) for e in extents]
        stop = [draw(st.integers(s + 1, e)) for s, e in zip(start, extents)]
        grids = np.meshgrid(*[np.arange(a, b) for a, b in zip(start, stop)],
                            indexing="ij")
        return np.ravel_multi_index([g.ravel() for g in grids], extents)
    if shape == "scattered":
        return np.array(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                      max_size=n, unique=True)))
    if shape == "single":
        return np.array([draw(st.integers(0, n - 1))])
    return np.delete(np.arange(n), draw(st.integers(0, n - 1)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_block_adjacency_matches_pairwise_reference(data):
    profile = data.draw(graph_profiles(), label="profile")
    n = profile.n_sites
    extents = profile.lattice.extents if hasattr(profile, "lattice") else (n,)
    block = data.draw(blocks(n, extents), label="block")
    # a budget of one byte packs one row per group
    budget = data.draw(st.sampled_from([1 << 21, 1, 3000]), label="budget")
    words, bad = reference_adjacency(profile, block)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphstate, "_CHUNK_BYTES", budget)
        if bad is None:
            gamma = block_adjacency(profile, block)
            assert gamma.words.dtype == np.uint64
            assert np.array_equal(gamma.words, words)
        else:
            with pytest.raises(NotAGraphStateError,
                               match=rf"between sites {bad[0]} and {bad[1]} "):
                block_adjacency(profile, block)


def test_generic_power_law_names_the_reference_pair():
    lat = Lattice((5, 6), ("open", "periodic"))
    prof = PhaseProfile(lat, PowerLaw(alpha=2.0), time=0.7)
    for block in ([17, 3, 4], centered_block(lat, 2), [29]):
        _, (k, l) = reference_adjacency(prof, block)
        with pytest.raises(NotAGraphStateError, match=rf"between sites {k} and {l} "):
            block_adjacency(prof, block)


def test_unrealized_bad_phase_does_not_raise():
    # strength 0.5 at distance 5 gives phase pi/2, but no block-environment
    # pair is 5 apart: (0, 5) lies inside the first block, and the second
    # block's farthest environment site is 3 away
    law = Table({1.0: 1.0, 2.0: 0.0, 3.0: 1.0, 4.0: 0.0, 5.0: 0.5})
    prof = PhaseProfile(Lattice(6), law, time=math.pi)
    for block in ([0, 5], [2]):
        words, bad = reference_adjacency(prof, block)
        assert bad is None
        assert np.array_equal(block_adjacency(prof, block).words, words)
    with pytest.raises(NotAGraphStateError, match="between sites 0 and 5 "):
        block_adjacency(prof, [0])


def _count_phase_rows(monkeypatch, cls):
    calls = []
    original = cls.phase_row

    def counting(self, k, ls):
        calls.append(k)
        return original(self, k, ls)

    monkeypatch.setattr(cls, "phase_row", counting)
    return calls


def test_distance_law_reads_one_phase_row(monkeypatch):
    calls = _count_phase_rows(monkeypatch, PhaseProfile)
    lat = Lattice((40, 40))
    prof = PhaseProfile(lat, Cutoff(reach=2.0), time=math.pi)
    block = centered_block(lat, 8)
    assert gf2_rank(block_adjacency(prof, block)) == analytic_block_entropy(2, 8, 2.0)
    assert len(calls) == 1


def test_block_covering_the_lattice_has_rank_zero():
    lat = Lattice((4, 5))
    for prof in (PhaseProfile(lat, Cutoff(reach=1.5), time=math.pi),
                 EdgeProfile.from_edges(20, [(0, 1), (3, 19)])):
        gamma = block_adjacency(prof, np.arange(20)[::-1])
        assert gamma.n_rows == 20 and not gamma.row_any().any()
        assert gf2_rank(gamma) == 0


def test_edge_list_roundtrip(tmp_path):
    path = tmp_path / "edges.txt"
    edges = [(0, 1), (3, 7), (2, 5)]
    write_edge_list(path, edges)
    assert read_edge_list(path) == edges


def test_edge_list_comments_and_errors(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# a comment\n\n0 1  # trailing note\n2 3\n")
    assert read_edge_list(path) == [(0, 1), (2, 3)]
    path.write_text("0 1 2\n")
    with pytest.raises(ValueError, match="expected 'site site'"):
        read_edge_list(path)
