import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wgstate.geometry import (
    TWO_PI,
    Cutoff,
    Disordered,
    EdgeProfile,
    Exponential,
    ConfigError,
    Lattice,
    PhaseProfile,
    PowerLaw,
    Table,
    _centred,
    _pair_factors,
    _reduce_phase,
    centered_block,
    coupled_pairs,
    coupled_sites,
    displacement_phases,
    pair_phases,
    pair_uniform,
    parse_lattice,
    parse_law,
    time_profiles,
)
from wgstate import geometry
from wgstate.rdm import _bit_table, _internal_phases


def test_chain_open_distance():
    lat = Lattice(10)
    assert lat.distance(2, 7) == 5.0
    assert lat.distance(0, 9) == 9.0


def test_chain_periodic_distance():
    lat = Lattice(10, boundary="periodic")
    assert lat.distance(0, 9) == 1.0
    assert lat.distance(0, 5) == 5.0
    assert lat.distance(2, 7) == 5.0


def test_square_lattice_distance():
    lat = Lattice((4, 4))
    k = lat.site_index((0, 0))
    l = lat.site_index((3, 3))
    assert lat.distance(k, l) == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-15)


def test_row_major_linearization():
    lat = Lattice((3, 4, 5))
    # axis 0 slowest: index = (c0*4 + c1)*5 + c2
    assert lat.site_index((0, 0, 0)) == 0
    assert lat.site_index((0, 0, 1)) == 1
    assert lat.site_index((0, 1, 0)) == 5
    assert lat.site_index((1, 0, 0)) == 20
    assert lat.site_index((2, 3, 4)) == 59
    for idx in [0, 7, 23, 59]:
        assert lat.site_index(lat.coords(idx)) == idx


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_ravel_wraps_periodic_axes_and_masks_points_off_open_ones(data):
    # the codec's index of a point on the lattice is its site, once each
    # periodic coordinate is taken modulo its extent, and coords inverts it
    dim = data.draw(st.integers(1, 3))
    extents = tuple(data.draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim)))
    if math.prod(extents) < 2:
        extents = extents[:-1] + (2,)
    boundary = tuple(data.draw(st.lists(st.sampled_from(["open", "periodic"]),
                                        min_size=dim, max_size=dim)))
    lattice = Lattice(extents, boundary)
    points = data.draw(st.lists(st.tuples(*(st.integers(-2 * e, 2 * e) for e in extents)),
                                min_size=1, max_size=30))
    dtype = data.draw(st.sampled_from([np.int32, np.intp]))
    flat, ok = lattice._ravel(np.array(points, dtype=dtype).T)
    ok = np.broadcast_to(ok, flat.shape)
    for point, index, inside in zip(points, flat.tolist(), ok.tolist()):
        assert inside == all(0 <= c < e for c, e, bound in zip(point, extents, boundary)
                             if bound == "open")
        if inside:
            wrapped = [c % e if bound == "periodic" else c
                       for c, e, bound in zip(point, extents, boundary)]
            assert index == lattice.site_index(wrapped)
            assert lattice.coords(index).tolist() == wrapped


def test_mixed_boundary_axes():
    lat = Lattice((6, 6), boundary=("open", "periodic"))
    a = lat.site_index((0, 0))
    b = lat.site_index((5, 5))
    # open axis contributes 5, periodic axis contributes min(5, 1) = 1
    assert lat.distance(a, b) == pytest.approx(math.sqrt(25 + 1), abs=1e-15)


def test_distance_symmetry():
    rng = np.random.default_rng(7)
    lat = Lattice((5, 7), boundary=("periodic", "open"))
    for _ in range(50):
        k, l = rng.integers(0, lat.n_sites, size=2)
        assert lat.distance(int(k), int(l)) == lat.distance(int(l), int(k))


def test_periodic_translation_invariance():
    lat = Lattice(12, boundary="periodic")
    for shift in range(1, 12):
        d0 = lat.distance(0, 4)
        ds = lat.distance(shift % 12, (4 + shift) % 12)
        assert d0 == ds


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(1)
    with pytest.raises(ValueError):
        Lattice((0, 4))
    with pytest.raises(ValueError):
        Lattice(10, boundary="twisted")
    with pytest.raises(ValueError):
        Lattice((4, 4), boundary=("open",))
    with pytest.raises(ValueError):
        Lattice(10).distance(0, 10)


def test_centered_block_even_in_even():
    lat = Lattice((12, 12))
    block = centered_block(lat, 2)
    assert list(block) == [5 * 12 + 5, 5 * 12 + 6, 6 * 12 + 5, 6 * 12 + 6]


def test_centered_block_odd_in_even():
    lat = Lattice((12, 12))
    block = centered_block(lat, 3)
    rows = sorted({idx // 12 for idx in block})
    cols = sorted({idx % 12 for idx in block})
    assert rows == [4, 5, 6] and cols == [4, 5, 6]
    assert len(block) == 9


def test_centered_block_chain():
    lat = Lattice(10)
    assert list(centered_block(lat, 4)) == [3, 4, 5, 6]
    with pytest.raises(ValueError):
        centered_block(lat, 11)


def test_power_law_phase_value():
    prof = PhaseProfile(Lattice(100), PowerLaw(alpha=3.0), time=0.3 * math.pi)
    assert prof.phase(0, 2) == pytest.approx(0.3 * math.pi / 8.0, abs=1e-15)
    assert prof.phase(0, 2) == pytest.approx(0.11780972450961724, abs=1e-16)


def test_cutoff_phases():
    prof = PhaseProfile(Lattice(20), Cutoff(reach=2.0), time=math.pi)
    assert prof.phase(0, 3) == 0.0
    assert prof.phase(0, 2) == pytest.approx(math.pi, abs=1e-15)
    assert prof.phase(0, 1) == pytest.approx(math.pi, abs=1e-15)


def test_phase_mod_two_pi():
    # f = 1 at r <= reach, t = 5*pi -> phase must come back reduced
    prof = PhaseProfile(Lattice(10), Cutoff(reach=10.0), time=5.0 * math.pi)
    assert prof.phase(0, 1) == pytest.approx(math.pi, abs=1e-12)
    assert 0.0 <= prof.phase(0, 1) < 2.0 * math.pi


def test_phase_symmetry():
    rng = np.random.default_rng(11)
    prof = PhaseProfile(Lattice((6, 6), boundary="periodic"),
                        PowerLaw(alpha=1.5), time=0.7)
    for _ in range(30):
        k, l = rng.integers(0, 36, size=2)
        if k == l:
            continue
        assert prof.phase(int(k), int(l)) == prof.phase(int(l), int(k))


def test_phase_row_matches_scalar():
    prof = PhaseProfile(Lattice(30), Exponential(kappa=0.5), time=1.3)
    ls = np.array([1, 4, 9, 16, 25])
    row = prof.phase_row(0, ls)
    for phi, l in zip(row, ls):
        assert phi == prof.phase(0, int(l))


def test_phase_self_pair_rejected():
    prof = PhaseProfile(Lattice(10), PowerLaw(alpha=2.0), time=1.0)
    with pytest.raises(ValueError):
        prof.phase(3, 3)
    with pytest.raises(ValueError):
        prof.phase_row(3, np.array([1, 3, 5]))


@pytest.mark.parametrize("time", [math.nan, math.inf, -1.0])
def test_a_profile_time_must_be_finite_and_non_negative(time):
    # the one time rule: a grid's times and the CLI's t_over_pi meet it here
    with pytest.raises(ValueError, match=f"time must be finite and non-negative, got {time!r}"):
        PhaseProfile(Lattice(4), PowerLaw(alpha=1.0), time)


def test_a_cutoff_reach_must_be_a_number():
    # a NaN reach would compare false against every distance and uncouple
    # every pair; an infinite one couples every pair
    with pytest.raises(ValueError, match="reach must be non-negative"):
        Cutoff(math.nan)
    assert Cutoff(math.inf).strengths(np.array([1.0, 1e300])).tolist() == [1.0, 1.0]


@pytest.mark.parametrize("entries", [{1.0: math.nan, 2.0: 0.5}, {1.0: 0.5, 2.0: math.inf},
                                     {math.nan: 0.5}])
def test_a_table_holds_finite_entries(entries):
    with pytest.raises(ValueError, match="table entries must be finite numbers"):
        Table(entries)


@pytest.mark.parametrize("amplitude", [(math.nan, 1.0), (0.0, math.inf)])
def test_a_disordered_amplitude_is_finite(amplitude):
    with pytest.raises(ValueError, match="amplitude bounds must be finite"):
        Disordered(base=PowerLaw(alpha=1.0), seed=1, amplitude=amplitude)


def test_monotone_decay():
    lat = Lattice(50)
    for law in [PowerLaw(alpha=0.5), PowerLaw(alpha=3.0), Exponential(kappa=1.0)]:
        r = np.arange(1.0, 30.0)
        f = law.strengths(r)
        assert np.all(np.diff(f) < 0)
        assert np.all(f > 0)


def test_table_law_lookup():
    law = Table({1.0: 0.5, 2.0: 0.25, math.sqrt(2.0): 0.3})
    vals = law.strengths(np.array([2.0, 1.0, math.sqrt(2.0)]))
    assert list(vals) == [0.25, 0.5, 0.3]
    with pytest.raises(ValueError):
        law.strengths(np.array([1.5]))


def test_disordered_determinism_and_symmetry():
    base = PowerLaw(alpha=2.0)
    law = Disordered(base=base, seed=42, amplitude=(0.5, 1.5))
    r = np.array([3.0])
    a = law.strengths(r, 4, np.array([9]))
    b = law.strengths(r, 4, np.array([9]))
    c = law.strengths(r, 9, np.array([4]))
    assert a[0] == b[0] == c[0]
    # amplitude window scales the base strength
    assert 0.5 * base.strengths(r)[0] <= a[0] < 1.5 * base.strengths(r)[0]
    # a different seed decorrelates
    other = Disordered(base=base, seed=43, amplitude=(0.5, 1.5))
    assert other.strengths(r, 4, np.array([9]))[0] != a[0]


def test_pair_uniform_distribution():
    # crude check that the per-pair hash looks uniform on [0, 1)
    ks = np.zeros(20000, dtype=np.int64)
    ls = np.arange(1, 20001)
    u = pair_uniform(123, ks, ls)
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(np.var(u) - 1.0 / 12.0) < 0.005


def test_edge_profile():
    prof = EdgeProfile.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert prof.n_sites == 4
    assert prof.phase(0, 1) == pytest.approx(math.pi)
    assert prof.phase(1, 0) == pytest.approx(math.pi)
    assert prof.phase(0, 2) == 0.0
    row = prof.phase_row(1, np.array([0, 2, 3]))
    assert row == pytest.approx([math.pi, math.pi, 0.0])
    with pytest.raises(ValueError):
        prof.phase(2, 2)
    with pytest.raises(ValueError):
        EdgeProfile(3, {(0, 0): 1.0})


def test_edge_profile_explicit_phases():
    prof = EdgeProfile(3, {(0, 1): 0.25, (1, 2): 4.0 * math.pi + 0.5})
    assert prof.phase(0, 1) == pytest.approx(0.25)
    assert prof.phase(2, 1) == pytest.approx(0.5, abs=1e-12)


def _reduced(phi):
    """phi mod 2*pi in [0, 2*pi), by Python float arithmetic."""
    phi %= TWO_PI
    return 0.0 if phi == TWO_PI else phi


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_edge_profile_rows_match_listed_phases(data):
    n = data.draw(st.integers(2, 30), label="n")
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    phases = st.one_of(st.sampled_from([0.0, math.pi, -1e-17, -5e-324]),
                       st.floats(-20.0, 20.0))
    listed = data.draw(st.dictionaries(pairs, phases, max_size=3 * n), label="listed")
    profile = EdgeProfile(n, listed)
    expected = {}
    for (k, l), phi in listed.items():   # a later listing of a pair wins
        expected[k, l] = expected[l, k] = _reduced(phi)
    k = data.draw(st.integers(0, n - 1), label="k")
    ls = data.draw(st.lists(st.integers(0, n - 1).filter(lambda l: l != k),
                            max_size=2 * n), label="ls")
    row = profile.phase_row(k, ls)
    assert row.shape == (len(ls),)
    for l, phi in zip(ls, row):
        assert 0.0 <= phi < TWO_PI
        assert phi == expected.get((k, l), 0.0) == profile.phase(k, l)
    with pytest.raises(ValueError, match="paired with itself"):
        profile.phase_row(k, ls + [k])
    for bad in ([n], [-1]):
        with pytest.raises(ValueError, match="out of range"):
            profile.phase_row(k, bad)
    with pytest.raises(ValueError, match="out of range"):
        profile.phase_row(n, [0])


def test_phases_just_below_a_full_turn_reduce_to_zero():
    # np.mod(-1e-17, 2*pi) rounds to 2*pi itself, outside [0, 2*pi)
    edges = EdgeProfile(4, {(0, 1): -1e-17})
    assert edges.phase(0, 1) == 0.0
    assert edges.phase_row(1, [0, 2])[0] == 0.0
    profile = PhaseProfile(Lattice(3), Table({1.0: -1e-17, 2.0: 1.0}), time=1.0)
    assert profile.phase_row(0, [1, 2]).tolist() == [0.0, 1.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, -5e-324, -1e-17, TWO_PI, -TWO_PI, math.pi,
                     math.nextafter(TWO_PI, 0.0), math.inf, -math.inf, math.nan]),
    st.floats(-1e3, 1e3), st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(allow_nan=True, allow_infinity=True)), max_size=40))
def test_phase_reduction_matches_np_mod_bit_for_bit(values):
    # only entries outside [0, 2*pi), -0.0 among them, go through np.mod;
    # a phase that is not finite raises, naming the first one
    x = np.array(values, dtype=np.float64)
    bad = x[~np.isfinite(x)]
    if bad.size:
        with pytest.raises(ValueError, match=re.escape(f"phase {float(bad[0])!r} is not finite")):
            _reduce_phase(x)
        return
    wrapped = np.mod(x, TWO_PI)
    expected = np.where(wrapped == TWO_PI, 0.0, wrapped)
    got = _reduce_phase(x)
    assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_a_phase_that_is_not_finite_raises():
    # NaN listed for an edge, and f(r) * t overflowing to inf, where each
    # phase is reduced: no NaN reaches an entropy
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"phase {phi!r} is not finite"):
            EdgeProfile(4, {(0, 1): phi})
    profile = PhaseProfile(Lattice(3), Table({1.0: 1e300, 2.0: 1.0}), time=1e10 * math.pi)
    with pytest.raises(ValueError, match="phase inf is not finite"):
        profile.phase_row(0, [1, 2])
    with pytest.raises(ValueError, match="phase inf is not finite"):
        displacement_phases(profile)


def test_displacement_phases_match_phase_rows():
    lattice = Lattice((5, 4, 3), ("open", "periodic", "periodic"))
    profile = PhaseProfile(lattice, PowerLaw(alpha=1.5), time=2.3)
    table = displacement_phases(profile)
    assert table.shape == lattice.extents and table[0, 0, 0] == 0.0
    coords = lattice.coords(np.arange(lattice.n_sites))
    for k in (0, 17, 59):
        others = np.delete(np.arange(lattice.n_sites), k)
        d = np.abs(coords[others] - coords[k])
        assert np.array_equal(table[tuple(d.T)], profile.phase_row(k, others))
    disordered = PhaseProfile(lattice, Disordered(PowerLaw(alpha=1.5), seed=3), time=2.3)
    assert displacement_phases(disordered) is None
    assert displacement_phases(EdgeProfile.from_edges(4, [(0, 1)])) is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_cutoff_table_from_its_reach_box_is_the_whole_phase_row(data):
    # a cutoff's table reads only its reach box, yet equals, byte for byte,
    # the table of site 0's phase row to every other site: alone, and as a
    # row of a grid's stack
    dim = data.draw(st.integers(1, 3))
    extents = tuple(data.draw(st.lists(st.integers(1, 9), min_size=dim, max_size=dim)))
    if math.prod(extents) < 2:
        extents = extents[:-1] + (2,)
    boundary = data.draw(st.lists(st.sampled_from(["open", "periodic"]),
                                  min_size=dim, max_size=dim))
    lattice = Lattice(extents, tuple(boundary))
    reach = data.draw(st.one_of(st.floats(0.0, 1.5 * max(extents)),
                                st.integers(0, max(extents) + 1).map(float),
                                st.sampled_from([math.sqrt(2.0), math.inf])), label="reach")
    times = data.draw(st.lists(st.sampled_from([0.0, math.pi, 0.3, TWO_PI]),
                               min_size=1, max_size=3), label="times")

    def whole(t):
        phi = np.zeros(extents)
        profile = PhaseProfile(lattice, Cutoff(reach), t)
        phi.reshape(-1)[1:] = profile.phase_row(0, np.arange(1, lattice.n_sites))
        return phi.tobytes()

    for t in (0.0, math.pi):
        assert PhaseProfile(lattice, Cutoff(reach), t)._displacement_table.tobytes() == whole(t)
    grid = time_profiles(PhaseProfile(lattice, Cutoff(reach), 0.0), times)
    assert [p._displacement_table.tobytes() for p in grid] == [whole(t) for t in times]


@st.composite
def profiles(draw):
    """A 1-3 D lattice of at most 40 sites with open, periodic or mixed axes,
    under any law: a distance law, a Table of every lattice distance, a
    Disordered law, or random explicit edges."""
    dim = draw(st.integers(1, 3))
    limit = {1: 40, 2: 7, 3: 4}[dim]
    extents = tuple(draw(st.lists(st.integers(1, limit), min_size=dim, max_size=dim)))
    if math.prod(extents) < 2:
        extents = extents[:-1] + (2,)
    boundary = draw(st.lists(st.sampled_from(["open", "periodic"]),
                             min_size=dim, max_size=dim))
    lattice = Lattice(extents, tuple(boundary))
    n = lattice.n_sites
    kind = draw(st.sampled_from(["power", "exponential", "cutoff", "table",
                                 "disordered", "edges"]))
    if kind == "edges":
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1])
        phases = st.sampled_from([0.0, math.pi, 0.7, TWO_PI])
        return EdgeProfile(n, draw(st.dictionaries(pairs, phases, max_size=2 * n)))
    reach = st.sampled_from([0.0, 1.0, 1.5, 2.0, 2.3, 3.0, 5.0])
    if kind == "power":
        law = PowerLaw(draw(st.floats(0.5, 4.0)))
    elif kind == "exponential":
        law = Exponential(draw(st.floats(0.1, 400.0)))
    elif kind == "cutoff":
        law = Cutoff(draw(reach))
    elif kind == "table":
        r = np.unique(lattice.distances(0, np.arange(1, n)))
        strengths = st.sampled_from([0.0, 0.0, 1.0, 0.25, 2.0])
        law = Table({float(x): draw(strengths) for x in r})
    else:
        law = Disordered(Cutoff(draw(reach)), seed=draw(st.integers(0, 9)))
    time = draw(st.sampled_from([math.pi, 0.3, 2.0 * math.pi, 7.5]))
    return PhaseProfile(lattice, law, time=time)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), profile=profiles())
def test_pair_phases_read_phase_rows_and_coupled_sites_bound_them(data, profile):
    n = profile.n_sites
    order = data.draw(st.permutations(range(n)))
    m = data.draw(st.integers(1, min(4, n - 1)))
    sites = np.array(order[:m])
    ls = np.array(data.draw(st.lists(st.sampled_from(order[m:]), unique=True)),
                  dtype=np.intp)
    rows = np.stack([profile.phase_row(int(k), ls) for k in sites])
    phi = pair_phases(profile, sites, ls)
    assert phi.shape == rows.shape and phi.tobytes() == rows.tobytes()
    near = coupled_sites((profile,), sites, ls)
    assert np.all(np.diff(near) > 0) and np.all((0 <= near) & (near < ls.size))
    assert not rows[:, np.setdiff1d(np.arange(ls.size), near)].any()
    # at a threshold, the box shrinks and every site outside it has phases
    # of magnitude at most the threshold, once reduced to (-pi, pi]
    tau = data.draw(st.sampled_from([1e-12, 0.3, 1.0, 3.0]), label="tau")
    inner = coupled_sites((profile,), sites, ls, tau)
    assert np.all(np.diff(inner) > 0) and np.isin(inner, near).all()
    assert (np.abs(_centred(rows[:, np.setdiff1d(np.arange(ls.size), inner)])) <= tau).all()
    # the sites the sweep multiplies and their factors, from the cached
    # table or np.exp
    live, z = _pair_factors((profile,), sites, ls)
    assert np.array_equal(live, rows.any(axis=0))
    assert z.tobytes() == np.exp(-1j * rows[:, live]).tobytes()
    # with own, a stack's, the subset's sites are kept too
    live, _ = _pair_factors((profile,), sites, np.concatenate([ls, sites]), own=True)
    assert np.array_equal(live, np.concatenate([rows.any(axis=0), np.ones(m, dtype=bool)]))
    # a site paired with itself, as in a stack's own sites, has phase 0.0
    assert not np.diagonal(pair_phases(profile, sites, sites)).any()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), profile=profiles())
def test_coupled_pairs_read_every_phase_once(data, profile):
    n = profile.n_sites
    block = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                        unique=True)))
    # the default budget; one byte, one row per group; and one in between
    budget = data.draw(st.sampled_from([geometry._CHUNK_BYTES, 1, 3000]), label="budget")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_CHUNK_BYTES", budget)
        groups = list(coupled_pairs(profile, block))
    # each group holds whole rows, ascending
    rows = [g[0] for g in groups if g[0].size]
    assert all(np.all(np.diff(r) >= 0) for r in rows)
    assert all(a[-1] < b[0] for a, b in zip(rows, rows[1:]))
    r, l, phi = (np.concatenate(x) for x in zip(*groups))
    env = np.setdiff1d(np.arange(n), block)
    ref = pair_phases(profile, block, env)
    i, j = np.nonzero(ref)
    # every pair with a phase other than 0.0 exactly once, its phase bit
    # for bit the reader's
    got = np.lexsort((l, r))
    assert np.array_equal(r[got], i) and np.array_equal(l[got], env[j])
    assert phi[got].tobytes() == ref[i, j].tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_near_reach_is_the_farthest_live_displacement_per_axis(data):
    dim = data.draw(st.integers(1, 3))
    extents = tuple(data.draw(st.lists(st.integers(1, 7), min_size=dim, max_size=dim)))
    if math.prod(extents) < 2:
        extents = extents[:-1] + (2,)
    lattice = Lattice(extents)
    # at t = 0 every entry is 0.0; otherwise a table of any pattern
    profile = PhaseProfile(lattice, PowerLaw(1.0), time=0.0)
    if data.draw(st.booleans()):
        live = data.draw(st.lists(st.booleans(), min_size=lattice.n_sites,
                                  max_size=lattice.n_sites))
        profile.__dict__["_displacement_table"] = np.where(np.reshape(live, extents), 0.5, 0.0)
    live = profile._displacement_table != 0.0
    live.flat[0] = True
    assert np.array_equal(profile._near_reach, np.max(np.nonzero(live), axis=1))
    # at a threshold, the farthest entries whose reduced phase exceeds it;
    # below the rim, the near reach
    table = data.draw(st.sampled_from([0.0, 1e-9, 0.5, 4.0, TWO_PI - 1e-9]), label="scale") * (
        profile._displacement_table != 0.0)
    profile = PhaseProfile(lattice, PowerLaw(1.0), time=0.0)
    profile.__dict__["_displacement_table"] = table
    tau = data.draw(st.sampled_from([1e-10, 1e-8, 1.0, 3.0]), label="tau")
    above = np.abs(np.where(table > math.pi, table - TWO_PI, table)) > tau
    above.flat[0] = True
    reach = geometry._reach(table, tau)
    assert np.array_equal(reach, np.max(np.nonzero(above), axis=1))
    assert (reach == profile._near_reach) == (tau < profile._rim)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), profile=profiles())
def test_a_stack_couples_the_union_of_its_subsets(data, profile):
    n = profile.n_sites
    m = data.draw(st.integers(1, min(3, n)))
    stack = np.array(data.draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m, unique=True),
        min_size=1, max_size=4)))
    ls = np.array(data.draw(st.permutations(range(n))), dtype=np.intp)
    union = np.unique(np.concatenate([coupled_sites((profile,), row, ls) for row in stack]))
    assert np.array_equal(coupled_sites((profile,), stack, ls), union)
    # a grid couples the union of its times; at 0.0, and at 2 pi for a
    # cutoff, every phase is 0.0 and the box is the bounding box alone
    if isinstance(profile, PhaseProfile):
        more = data.draw(st.lists(st.sampled_from([0.3, 1.0, math.pi, 7.5]), max_size=3))
        grid = time_profiles(profile, data.draw(st.permutations([0.0, TWO_PI, *more])))
        each = np.unique(np.concatenate([coupled_sites((p,), stack, ls) for p in grid]))
        assert np.array_equal(coupled_sites(grid, stack, ls), each)
    # the near box holds its own subset, even where no phase is other than 0.0
    assert np.isin(stack, ls[union]).all()
    # every row's own pairs in one read, bit for bit each row's alone
    lone = np.stack([pair_phases(profile, row, row) for row in stack])
    assert pair_phases(profile, stack, stack).tobytes() == lone.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), profile=profiles())
def test_a_grid_reads_its_stack_as_each_time_alone(data, profile):
    # edge profiles have no time to vary
    assume(isinstance(profile, PhaseProfile))
    n = profile.n_sites
    times = data.draw(st.lists(st.sampled_from([0.0, 0.3, math.pi, TWO_PI, 7.5]),
                               min_size=1, max_size=4), label="times")
    grid = time_profiles(profile, times)
    lone = [PhaseProfile(profile.lattice, profile.law, t) for t in times]
    order = data.draw(st.permutations(range(n)))
    m = data.draw(st.integers(1, min(3, n - 1)))
    sites, ls = np.array(order[:m]), np.array(order[m:], dtype=np.intp)
    # every time's factors from one read of the grid, bit for bit each
    # lone profile's phases and np.exp of them
    phi = np.stack([pair_phases(p, sites, ls) for p in lone])
    live, z = _pair_factors(grid, sites, ls)
    assert np.array_equal(live, phi.any(axis=(0, 1)))
    assert z.tobytes() == np.exp(-1j * phi[:, :, live]).reshape(len(times) * m, -1).tobytes()
    # internal phases of a stack of subsets, time after time
    stack = np.array(data.draw(st.lists(st.permutations(range(n)).map(lambda o: o[:m]),
                                        min_size=1, max_size=3)))
    bits = _bit_table(m)
    alone = np.concatenate([_internal_phases((p,), stack, bits) for p in lone])
    assert _internal_phases(grid, stack, bits).tobytes() == alone.tobytes()
    # each time's tables are read-only views of the grid's stacks
    if displacement_phases(profile) is None:
        return
    stacks = grid._displacement_table, grid._displacement_factors
    for p, table, factors in zip(grid, *stacks):
        assert np.shares_memory(p._displacement_table, stacks[0])
        assert np.shares_memory(p._displacement_factors, stacks[1])
        assert p._displacement_table.tobytes() == table.tobytes()
        assert p._displacement_factors.tobytes() == factors.tobytes()
        assert not (p._displacement_table.flags.writeable or factors.flags.writeable)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_ball_sites_are_every_site_within_the_radius(data):
    # a Cutoff of reach radius couples the block, with phase 1.0, to the
    # sites the rule over every site outside the block keeps: the lower
    # bound's kept ball
    dim = data.draw(st.integers(1, 3))
    extents = tuple(data.draw(st.lists(st.integers(1, 9), min_size=dim, max_size=dim)))
    if math.prod(extents) < 2:
        extents = extents[:-1] + (2,)
    boundary = data.draw(st.lists(st.sampled_from(["open", "periodic"]),
                                  min_size=dim, max_size=dim))
    lattice = Lattice(extents, tuple(boundary))
    n = lattice.n_sites
    block = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                        max_size=min(n, 6), unique=True)))
    radius = data.draw(st.one_of(st.floats(0.0, 2.0 * max(extents)),
                                 st.integers(0, 2 * max(extents)).map(float),
                                 st.sampled_from([math.sqrt(2.0), 2.5, math.inf])),
                       label="radius")
    rest = np.setdiff1d(np.arange(n), block)
    nearest = np.full(rest.size, np.inf)
    for k in block:
        nearest = np.minimum(nearest, lattice.distances(int(k), rest))
    groups = list(coupled_pairs(PhaseProfile(lattice, Cutoff(max(radius, 0.0)), 1.0), block))
    kept = np.concatenate([np.empty(0, dtype=np.intp)] + [l for _, l, _ in groups])
    assert all((phi == 1.0).all() for _, _, phi in groups)
    assert np.array_equal(np.unique(kept), rest[nearest <= radius])


def test_parse_lattice():
    lat = parse_lattice({"extents": "12, 12", "boundary": "periodic"})
    assert lat.extents == (12, 12)
    assert lat.boundary == ("periodic", "periodic")
    lat = parse_lattice({"extents": "10"})
    assert lat.boundary == ("open",)
    lat = parse_lattice({"extents": "4, 6", "boundary": "open, periodic"})
    assert lat.boundary == ("open", "periodic")
    with pytest.raises(ConfigError):
        parse_lattice({})
    with pytest.raises(ConfigError):
        parse_lattice({"extents": "4, 4", "dimension": "3"})
    with pytest.raises(ConfigError):
        parse_lattice({"extents": "ten"})


def test_parse_law():
    law = parse_law({"variant": "power", "alpha": "3"})
    assert isinstance(law, PowerLaw) and law.alpha == 3.0
    law = parse_law({"variant": "exponential", "kappa": "1.0"})
    assert isinstance(law, Exponential) and law.kappa == 1.0
    law = parse_law({"variant": "cutoff", "lambda": "2"})
    assert isinstance(law, Cutoff) and law.reach == 2.0
    law = parse_law({"variant": "table", "table": "1:0.5, 2:0.25"})
    assert law.strengths(np.array([2.0]))[0] == 0.25
    law = parse_law({"variant": "disordered", "base": "power", "alpha": "2",
                     "seed": "7", "amplitude": "uniform(0.5, 1.5)"})
    assert isinstance(law, Disordered)
    assert law.amplitude == (0.5, 1.5)
    with pytest.raises(ConfigError):
        parse_law({"variant": "power"})
    with pytest.raises(ConfigError):
        parse_law({"variant": "gaussian", "sigma": "1"})
    with pytest.raises(ConfigError):
        parse_law({"variant": "disordered", "base": "power", "alpha": "2"})
