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
    ConfigError,
    Lattice,
    PhaseProfile,
    PowerLaw,
    Table,
    _pair_factors,
    _reduce_phase,
    centered_block,
    coupled_sites,
    displacement_phases,
    pair_phases,
    pair_uniform,
    parse_lattice,
    parse_law,
)


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
    # only entries outside [0, 2*pi), -0.0 among them, go through np.mod
    x = np.array(values, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        wrapped = np.mod(x, TWO_PI)
        expected = np.where(wrapped == TWO_PI, 0.0, wrapped)
        got = _reduce_phase(x)
    assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()


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
    near = coupled_sites(profile, sites, ls)
    assert np.all(np.diff(near) > 0) and np.all((0 <= near) & (near < ls.size))
    assert not rows[:, np.setdiff1d(np.arange(ls.size), near)].any()
    # the sites the sweep multiplies and their factors, from the cached
    # table or np.exp
    live, z = _pair_factors(profile, sites, ls)
    assert np.array_equal(live, rows.any(axis=0))
    assert z.tobytes() == np.exp(-1j * rows[:, live]).tobytes()
    # with own, a stack's, the subset's sites are kept too
    live, _ = _pair_factors(profile, sites, np.concatenate([ls, sites]), own=True)
    assert np.array_equal(live, np.concatenate([rows.any(axis=0), np.ones(m, dtype=bool)]))
    # a site paired with itself, as in a stack's own sites, has phase 0.0
    assert not np.diagonal(pair_phases(profile, sites, sites)).any()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), profile=profiles())
def test_a_stack_couples_the_union_of_its_subsets(data, profile):
    n = profile.n_sites
    m = data.draw(st.integers(1, min(3, n)))
    stack = np.array(data.draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m, unique=True),
        min_size=1, max_size=4)))
    ls = np.array(data.draw(st.permutations(range(n))), dtype=np.intp)
    union = np.unique(np.concatenate([coupled_sites(profile, row, ls) for row in stack]))
    assert np.array_equal(coupled_sites(profile, stack, ls), union)
    # the near box holds its own subset, even where no phase is other than 0.0
    assert np.isin(stack, ls[union]).all()
    # every row's own pairs in one read, bit for bit each row's alone
    lone = np.stack([pair_phases(profile, row, row) for row in stack])
    assert pair_phases(profile, stack, stack).tobytes() == lone.tobytes()


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
