import math
import re
import tracemalloc

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
import wgstate
from wgstate import graphstate
from wgstate.graphstate import (
    Adjacency,
    NotAGraphStateError,
    analytic_block_entropy,
    block_adjacency,
    connected_vertex_count,
    gf2_rank,
    read_edge_list,
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


def from_dense(dense):
    """Integer rows of a dense 0/1 matrix, column c at bit c."""
    dense = np.asarray(dense)
    rows = tuple(sum(1 << int(c) for c in np.flatnonzero(row)) for row in dense)
    return Adjacency(rows, dense.shape[1])


def test_block_adjacency_bit_layout():
    # block sites 0, 1, 2; environment sites 3..102 are columns 0..99, and
    # the edges land on columns 0 and 63 (row 1) and 64 and 99 (row 2)
    prof = EdgeProfile.from_edges(103, [(1, 3), (1, 66), (2, 67), (2, 102)])
    gamma = block_adjacency(prof, [0, 1, 2])
    assert gamma.n_rows == 3 and gamma.n_cols == 100
    assert gamma.rows == (0, 1 | 1 << 63, 1 << 64 | 1 << 99)
    assert connected_vertex_count(gamma) == 2 and gf2_rank(gamma) == 2


def test_public_names_and_row_count():
    # every exported name resolves, and the adjacency reports one row per
    # block site, as the benchmark's tracer reads it
    for name in wgstate.__all__:
        assert getattr(wgstate, name) is not None, name
    lat = Lattice((12, 12))
    prof = PhaseProfile(lat, Cutoff(reach=2.0), time=math.pi)
    for side in (1, 3, 12):
        block = centered_block(lat, side)
        assert block_adjacency(prof, block).n_rows == len(block)


def test_gf2_rank_small_cases():
    assert gf2_rank(from_dense(np.eye(5))) == 5
    assert gf2_rank(from_dense(np.ones((2, 2)))) == 1
    assert gf2_rank(from_dense(np.zeros((3, 4)))) == 0
    # over GF(2), [[1,1],[1,1],[0,0]] has a single independent row
    assert gf2_rank(from_dense(np.array([[1, 1], [1, 1], [0, 0]]))) == 1
    # XOR dependency: row3 = row1 ^ row2
    m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert gf2_rank(from_dense(m)) == 2


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 150), inner=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gf2_rank_matches_dense_elimination(rows, cols, inner, seed):
    # a product of (rows x inner) and (inner x cols) factors has rank at
    # most inner, so dependent rows are common, not only full-rank draws
    rng = np.random.default_rng(seed)
    dense = (rng.integers(0, 2, size=(rows, inner))
             @ rng.integers(0, 2, size=(inner, cols))) % 2
    assert gf2_rank(from_dense(dense)) == dense_gf2_rank(dense)


def test_gf2_rank_transpose_invariant():
    rng = np.random.default_rng(45)
    for _ in range(15):
        dense = rng.integers(0, 2, size=(int(rng.integers(1, 10)),
                                         int(rng.integers(1, 90))))
        assert gf2_rank(from_dense(dense)) == gf2_rank(from_dense(dense.T))


def full_adjacency(profile):
    """N x N adjacency, row k from ``block_adjacency(profile, [k])``."""
    n = profile.n_sites
    dense = np.zeros((n, n), dtype=int)
    for k in range(n):
        gamma = block_adjacency(profile, [k])
        row = gamma.rows[0] << gamma.offset
        dense[k, np.delete(np.arange(n), k)] = [row >> c & 1 for c in range(n - 1)]
    return dense


def test_adjacency_from_nearest_neighbor_profile():
    lat = Lattice(5)
    prof = PhaseProfile(lat, Cutoff(reach=1.0), time=math.pi)
    dense = full_adjacency(prof)
    expected = np.zeros((5, 5), dtype=int)
    for k in range(4):
        expected[k, k + 1] = expected[k + 1, k] = 1
    assert np.array_equal(dense, expected)


def test_adjacency_band_width_follows_reach():
    lat = Lattice(9)
    prof = PhaseProfile(lat, Cutoff(reach=2.0), time=math.pi)
    dense = full_adjacency(prof)
    assert np.array_equal(dense, dense.T)
    assert not dense.diagonal().any()
    assert dense[4].sum() == 4  # two neighbors on each side


def test_adjacency_rejects_generic_phases():
    lat = Lattice(6)
    prof = PhaseProfile(lat, PowerLaw(alpha=3.0), time=0.3 * math.pi)
    with pytest.raises(NotAGraphStateError):
        block_adjacency(prof, [2, 3])


def test_adjacency_from_edge_profile():
    prof = EdgeProfile.from_edges(5, [(0, 4), (1, 2)])
    dense = full_adjacency(prof)
    expected = np.zeros((5, 5), dtype=int)
    expected[0, 4] = expected[4, 0] = 1
    expected[1, 2] = expected[2, 1] = 1
    assert np.array_equal(dense, expected)


def test_block_adjacency_validates():
    lat = Lattice(10)
    prof = PhaseProfile(lat, Cutoff(reach=1.0), time=math.pi)
    with pytest.raises(ValueError):
        block_adjacency(prof, [])
    with pytest.raises(ValueError):
        block_adjacency(prof, [3, 3])
    with pytest.raises(ValueError):
        block_adjacency(prof, [10])


def test_graph_block_entropy_isolated_block():
    prof = EdgeProfile.from_edges(6, [(0, 1)])
    assert gf2_rank(block_adjacency(prof, [3, 4])) == 0


def test_graph_block_entropy_interior_chain_block():
    lat = Lattice(40)
    prof = PhaseProfile(lat, Cutoff(reach=1.0), time=math.pi)
    gamma = block_adjacency(prof, np.arange(10, 20))
    assert gf2_rank(gamma) == 2
    assert connected_vertex_count(gamma) == 2


def test_graph_block_entropy_wide_band():
    lat = Lattice(40)
    prof = PhaseProfile(lat, Cutoff(reach=3.0), time=math.pi)
    assert gf2_rank(block_adjacency(prof, np.arange(15, 25))) == 6


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
        # a Euclidean cutoff at a non-integer reach spans floor(reach) layers
        for reach in (1, 1.5, 2, 2.5, 3):
            side = int(rng.integers(2, 5))
            extent = side + 2 * math.ceil(reach) + 2
            lat = Lattice((extent,) * dim)
            prof = PhaseProfile(lat, Cutoff(reach=float(reach)), time=math.pi)
            block = centered_block(lat, side)
            rank = gf2_rank(block_adjacency(prof, block))
            assert rank == analytic_block_entropy(dim, side, reach)
        # a complete graph: every block site meets every other site, so the
        # rows are equal and the rank is 1
        lat = Lattice((int(rng.integers(4, 9)),) * dim)
        law = Table({float(r): 1.0 for r in lat.distances(0, np.arange(1, lat.n_sites))})
        block = centered_block(lat, 2)
        assert gf2_rank(block_adjacency(PhaseProfile(lat, law, time=math.pi), block)) == 1
    # the paper's d-dimensional regime: a side-20 box in an open lattice of
    # 10^6 sites
    lat = Lattice((100, 100, 100))
    prof = PhaseProfile(lat, Cutoff(reach=2.0), time=math.pi)
    rank = gf2_rank(block_adjacency(prof, centered_block(lat, 20)))
    assert rank == analytic_block_entropy(3, 20, 2) == 3904


def test_a_box_costs_its_coupled_span_not_the_lattice():
    # the same box in two lattices that differ only along axis 0, the
    # slowest, has the same sites, edges and rows in both; the larger one
    # adds only its float64 table and the inside mask per added site
    gammas, peaks = [], []
    for rows in (100, 10_000):
        lattice = Lattice((rows, 100))
        profile = PhaseProfile(lattice, Cutoff(reach=2.0), time=math.pi)
        block = (np.arange(40, 60)[:, None] * 100 + np.arange(40, 60)).ravel()
        tracemalloc.start()
        try:
            gammas.append(block_adjacency(profile, block))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    small, large = gammas
    assert large.rows == small.rows and large.offset == small.offset
    assert gf2_rank(large) == analytic_block_entropy(2, 20, 2.0)
    assert peaks[1] - peaks[0] <= 10 * (10_000 - 100) * 100, peaks


def test_rank_matches_analytic_on_periodic_lattice():
    lat = Lattice((6, 6), "periodic")
    prof = PhaseProfile(lat, Cutoff(reach=1.0), time=math.pi)
    block = centered_block(lat, 2)
    assert gf2_rank(block_adjacency(prof, block)) == analytic_block_entropy(
        2, 2, 1.0)


def reference_adjacency(profile, block, tol=1e-9):
    """Block-to-environment integer rows from one ``profile.phase`` call per pair.

    Returns (rows, None), or (None, (k, l)) for the first pair, in block
    order and then ascending environment site, whose phase is neither 0
    nor pi within ``tol``.
    """
    inside = set(int(k) for k in block)
    env = [l for l in range(profile.n_sites) if l not in inside]
    rows = []
    for k in block:
        row = 0
        for j, l in enumerate(env):
            phi = profile.phase(int(k), l)
            if abs(phi - math.pi) <= tol:
                row |= 1 << j
            elif tol < phi < TWO_PI - tol:
                return None, (int(k), l)
        rows.append(row)
    return tuple(rows), None


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
    # the default budget; one byte, which reads one row per group; and one
    # in between
    budget = data.draw(st.sampled_from([graphstate._CHUNK_BYTES, 1, 3000]), label="budget")
    rows, bad = reference_adjacency(profile, block)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphstate, "_CHUNK_BYTES", budget)
        if bad is None:
            gamma = block_adjacency(profile, block)
            assert tuple(row << gamma.offset for row in gamma.rows) == rows
            assert gamma.n_cols == n - len(block)
            # the rows start at the lowest coupled column, or at 0 if none
            assert any(row & 1 for row in gamma.rows) if any(rows) else gamma.offset == 0
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
        rows, bad = reference_adjacency(prof, block)
        assert bad is None
        gamma = block_adjacency(prof, block)
        assert tuple(row << gamma.offset for row in gamma.rows) == rows
    with pytest.raises(NotAGraphStateError, match="between sites 0 and 5 "):
        block_adjacency(prof, [0])


def test_a_law_that_is_no_graph_state_stops_at_its_first_bad_group(monkeypatch):
    # phase pi / r^2: an edge at r = 1, neither 0 nor pi from r = 2 until it
    # falls within the tolerance of 0; one row's stencil images fill more
    # than the budget, so each group is one row
    lattice = Lattice(200_000)
    profile = PhaseProfile(lattice, PowerLaw(alpha=2.0), time=math.pi)
    block = np.arange(99_000, 101_000)
    others = np.setdiff1d(np.arange(lattice.n_sites), block)
    _, bad = graphstate._classify(profile.phase_row(int(block[0]), others))
    read, reader = [], graphstate.coupled_pairs

    def counted(*args):
        for group in reader(*args):
            read.append(group[0].size)      # a count: a group may hold 10^5 pairs
            yield group

    monkeypatch.setattr(graphstate, "coupled_pairs", counted)
    with pytest.raises(NotAGraphStateError,
                       match=rf"between sites {block[0]} and {others[np.argmax(bad)]} "):
        block_adjacency(profile, block)
    assert len(read) == 1


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
        assert gamma.n_rows == 20 and not any(gamma.rows)
        assert connected_vertex_count(gamma) == 0
        assert gf2_rank(gamma) == 0


def test_edge_list_roundtrip(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n3 7\n2 5\n")
    assert read_edge_list(path, 8) == [(0, 1), (3, 7), (2, 5)]


def test_edge_list_comments_and_errors(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# a comment\n\n0 1  # trailing note\n2 3\n")
    assert read_edge_list(path, 4) == [(0, 1), (2, 3)]
    # a line of three tokens, with a token that is not an integer, with a
    # site out of range or with a site paired with itself is named by file
    # and line
    for bad, why in (("0 1 2", "expected 'site site', got '0 1 2"),
                     ("1 x", "expected 'site site', got '1 x"),
                     ("0 1.5", "expected 'site site', got '0 1.5"),
                     ("1 7", "site pair (1, 7) out of range"),
                     ("-1 2", "site pair (-1, 2) out of range"),
                     ("1 1", "self-pair (1, 1) has no phase")):
        path.write_text(f"0 1\n{bad}\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:2: {why}")):
            read_edge_list(path, 5)
