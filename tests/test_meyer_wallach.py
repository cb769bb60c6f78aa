"""Tests of :func:`wgstate.measures.meyer_wallach`.

A distance law with the same populations at every site takes running sums
of its displacement table along each axis, which reads one phase row for
all sites; every other input takes each site's coherence from
:func:`wgstate.rdm.environment_factor` at x = 0, y = 1, one phase row per
site.  Both are checked against reduced states from
:func:`wgstate.rdm.reduced_density`, the statevector oracle, and, at large
N, the closed form :func:`wgstate.rdm.single_site_coherence`.
Property examples are derandomized so the suite runs the same cases every
time.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wgstate.measures as measures
import wgstate.rdm as rdm
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
    displacement_phases,
)
from wgstate.measures import meyer_wallach
from wgstate.oracle import evolve, partial_trace
from wgstate.rdm import ProductInput, reduced_density, single_site_coherence

FEW = settings(max_examples=6, deadline=None, derandomize=True)

_TIMES = st.one_of(st.sampled_from([0.0, math.pi, TWO_PI]),
                   st.floats(0.0, TWO_PI, allow_nan=False))
_THETAS = st.floats(0.0, math.pi / 2)
_CHIS = st.floats(0.0, TWO_PI, allow_nan=False)

# chains and grids with open, periodic and mixed boundaries, by every law
# that depends only on distance
_CASES = pytest.mark.parametrize("boundary,kind", [
    pytest.param(boundary, kind, id="-".join(boundary + (kind,)))
    for boundary in [("open",), ("periodic",), ("open", "open"),
                     ("periodic", "periodic"), ("open", "periodic")]
    for kind in ["power", "exponential", "cutoff", "table"]])


@st.composite
def profiles(draw, boundary, kind, max_sites):
    """A lattice of up to max_sites sites, one axis per boundary, under a
    law of the given kind; a Table law covers every distance on the
    lattice."""
    extents = []
    for _ in boundary[1:]:
        extents.append(draw(st.integers(1, max_sites // (2 * math.prod(extents)))))
    extents.append(draw(st.integers(2, max_sites // math.prod(extents))))
    lattice = Lattice(extents, boundary)
    if kind == "power":
        law = PowerLaw(draw(st.floats(0.3, 4.0)))
    elif kind == "exponential":
        law = Exponential(draw(st.floats(0.2, 10.0)))
    elif kind == "cutoff":
        law = Cutoff(draw(st.floats(0.0, 4.0)))
    else:
        reach = np.unique(lattice.distances(0, np.arange(1, lattice.n_sites)))
        law = Table({float(r): draw(st.floats(-3.0, 3.0)) for r in reach})
    return PhaseProfile(lattice, law, draw(_TIMES))


def uniform_input(n, theta, chi):
    """(cos theta, e^{i chi} sin theta) at every site."""
    amps = np.empty((n, 2), dtype=np.complex128)
    amps[:, 0] = math.cos(theta)
    amps[:, 1] = np.exp(1j * chi) * math.sin(theta)
    return ProductInput(amps)


def _purity(rho):
    return float(np.einsum("ij,ji->", rho, rho).real)


def _from_purities(purities):
    return 2.0 * (1.0 - float(np.mean(purities)))


def _oracle_purities(profile, state):
    psi = evolve(profile, state)
    return np.array([_purity(partial_trace(psi, [k])) for k in range(profile.n_sites)])


@_CASES
@FEW
@given(data=st.data(), theta=_THETAS, chi=_CHIS)
def test_matches_single_site_reduced_states(boundary, kind, data, theta, chi):
    profile = data.draw(profiles(boundary, kind, max_sites=40), label="profile")
    n = profile.n_sites
    state = uniform_input(n, theta, chi)
    purities = np.array([_purity(reduced_density(profile, state, [k]))
                         for k in range(n)])
    assert meyer_wallach(profile, state) == pytest.approx(
        _from_purities(purities), abs=1e-12)
    subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5,
                                unique=True), label="subset")
    assert meyer_wallach(profile, state, subset) == pytest.approx(
        _from_purities(purities[subset]), abs=1e-12)


@_CASES
@FEW
@given(data=st.data(), theta=_THETAS, chi=_CHIS)
def test_matches_statevector_oracle(boundary, kind, data, theta, chi):
    profile = data.draw(profiles(boundary, kind, max_sites=12), label="profile")
    state = uniform_input(profile.n_sites, theta, chi)
    assert meyer_wallach(profile, state) == pytest.approx(
        _from_purities(_oracle_purities(profile, state)), abs=1e-12)


@st.composite
def per_site_inputs(draw, case):
    """(profile, input) of at most 12 sites that :func:`meyer_wallach`
    takes site by site: a random input under a law of distance alone (the
    case names the law), |+> or a random input under :class:`Disordered`
    or an :class:`EdgeProfile`."""
    if case == "edges":
        n = draw(st.integers(2, 12), label="n")
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda pair: pair[0] != pair[1])
        profile = EdgeProfile(n, draw(st.dictionaries(pairs, st.floats(0.0, TWO_PI),
                                                      min_size=1, max_size=2 * n), label="edges"))
    else:
        boundary = draw(st.sampled_from([("open",), ("periodic",), ("open", "open"),
                                         ("periodic", "open")]), label="boundary")
        kind = "power" if case == "disordered" else case
        profile = draw(profiles(boundary, kind, max_sites=12), label="profile")
        if case == "disordered":
            law = Disordered(base=profile.law, seed=draw(st.integers(0, 99), label="seed"),
                             amplitude=(0.0, 3.0))
            profile = PhaseProfile(profile.lattice, law, profile.time)
    n = profile.n_sites
    if case in ("disordered", "edges") and draw(st.booleans(), label="plus"):
        return profile, ProductInput.plus(n)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="input seed"))
    return profile, ProductInput.random(n, rng)


@pytest.mark.parametrize("case", ["power", "exponential", "cutoff", "table", "disordered",
                                  "edges"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_per_site_path_matches_statevector_oracle(case, data):
    profile, state = data.draw(per_site_inputs(case), label="case")
    purities = _oracle_purities(profile, state)
    assert meyer_wallach(profile, state) == pytest.approx(_from_purities(purities), abs=1e-12)
    subset = data.draw(st.lists(st.integers(0, profile.n_sites - 1), min_size=1, max_size=5,
                                unique=True), label="subset")
    assert meyer_wallach(profile, state, subset) == pytest.approx(
        _from_purities(purities[subset]), abs=1e-12)


def test_large_chain_matches_closed_form_coherence():
    n = 100_000
    state = ProductInput.plus(n)
    # on |+> inputs a single site's E_MW is 1 - |c_k|^2
    chain = PhaseProfile(Lattice(n), PowerLaw(alpha=1.0), time=0.3 * math.pi)
    for k in (0, 1, 777, n // 2, n - 1):
        c = math.sqrt(1.0 - meyer_wallach(chain, state, [k]))
        expected = abs(single_site_coherence(chain, k))
        assert abs(c / expected - 1.0) < 1e-9
    # every site of a ring is alike, so the exact all-site average is one site's
    ring = PhaseProfile(Lattice(n, "periodic"), PowerLaw(alpha=1.0), time=0.3 * math.pi)
    expected = 1.0 - abs(single_site_coherence(ring, 0)) ** 2
    assert meyer_wallach(ring, state) == pytest.approx(expected, abs=1e-9)


def test_underflowing_coherence_gives_exactly_one():
    n = 50_000
    profile = PhaseProfile(Lattice(n), Cutoff(reach=1e9), time=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = meyer_wallach(profile, ProductInput.plus(n))
    assert value == 1.0


# Bound on |running sums - math.fsum| in _log_coherences, in units of
# eps * sum_l |h_kl|.  The worst over the 12,566 sites of the test below is
# 3.7; at N = 10^6 (a 1/r chain, t = 0.3 pi, p0 = 1/2) the worst over the
# chain is 3.2e-14 absolute, where a convolution by FFT left 5.0e-16.
_RUNNING_SUM_FLOOR = 8.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(),
       boundary=st.lists(st.sampled_from(["open", "periodic"]), min_size=1, max_size=3),
       kind=st.sampled_from(["power", "exponential", "cutoff", "table"]),
       p0=st.floats(0.0, 1.0))
def test_running_sums_match_a_direct_sum(data, boundary, kind, p0):
    profile = data.draw(profiles(tuple(boundary), kind, max_sites=80), label="profile")
    n, p1 = profile.n_sites, 1.0 - p0
    got = measures._log_coherences(displacement_phases(profile), p0, p1)
    assert got.shape == (n,)
    # each site's terms, formed as _log_coherences forms them, summed exactly
    for k in range(n):
        phi = profile.phase_row(k, np.delete(np.arange(n), k))
        h = np.log(np.abs(p0 + p1 * np.exp(1j * phi))).tolist()
        floor = _RUNNING_SUM_FLOOR * np.finfo(float).eps * math.fsum(map(abs, h))
        assert abs(got[k] - math.fsum(h)) <= floor, k


def test_a_periodic_grid_is_one_site_everywhere():
    # every site of a periodic lattice is alike, so the all-site average is
    # one site's closed form
    profile = PhaseProfile(Lattice((100, 120), "periodic"), PowerLaw(alpha=1.0), 0.3 * math.pi)
    expected = 1.0 - abs(single_site_coherence(profile, 0)) ** 2
    value = meyer_wallach(profile, ProductInput.plus(profile.n_sites))
    assert abs(value - expected) <= 1e-12


def test_running_sums_hold_a_few_tables_of_memory():
    table = displacement_phases(PhaseProfile(Lattice((40, 40, 40)), PowerLaw(1.0), 0.3))
    tracemalloc.start()
    try:
        measures._log_coherences(table, 0.5, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * table.nbytes


def _count_phase_rows(monkeypatch, cls):
    calls = []
    original = cls.phase_row

    def counting(self, k, ls):
        calls.append(k)
        return original(self, k, ls)

    monkeypatch.setattr(cls, "phase_row", counting)
    return calls


def test_uniform_distance_law_reads_one_phase_row(monkeypatch):
    calls = _count_phase_rows(monkeypatch, PhaseProfile)
    profile = PhaseProfile(Lattice(300), PowerLaw(alpha=1.0), time=0.4)
    meyer_wallach(profile, ProductInput.plus(300))
    meyer_wallach(profile, ProductInput.plus(300), [3, 100])
    assert len(calls) <= 2


@pytest.mark.parametrize("case", ["disordered", "edges", "random_input"])
def test_other_inputs_sweep_every_site(monkeypatch, case):
    n = 10
    rng = np.random.default_rng(41)
    state = ProductInput.plus(n)
    if case == "edges":
        profile = EdgeProfile(n, {(k, (3 * k + 1) % n): float(rng.uniform(0.0, TWO_PI))
                                  for k in range(n) if (3 * k + 1) % n != k})
    else:
        law = PowerLaw(alpha=1.0)
        if case == "disordered":
            law = Disordered(base=law, seed=5, amplitude=(0.0, 3.0))
        else:
            state = ProductInput.random(n, rng)
        profile = PhaseProfile(Lattice(n), law, time=1.3)
    expected = _from_purities(_oracle_purities(profile, state))
    calls = _count_phase_rows(monkeypatch, type(profile))
    assert meyer_wallach(profile, state) == pytest.approx(expected, abs=1e-12)
    # one phase row per site, a distance law's too: its table is not built
    assert len(calls) == n


def test_rejects_sites_out_of_range():
    profile = PhaseProfile(Lattice(8), PowerLaw(alpha=1.0), time=0.4)
    for sites in ([8], [-1]):
        with pytest.raises(ValueError):
            meyer_wallach(profile, ProductInput.plus(8), sites)


def test_rejects_empty_sites():
    profile = PhaseProfile(Lattice(8), PowerLaw(alpha=1.0), time=0.4)
    with pytest.raises(ValueError, match="at least one site"):
        meyer_wallach(profile, ProductInput.plus(8), [])


@pytest.mark.parametrize("slab", [1, 3, 16])
def test_slabs_of_the_environment_give_the_one_slab_values(monkeypatch, slab):
    # the per-site path (through environment_factor) and
    # single_site_coherence read the environment in slabs of rdm.ENV_SLAB
    # sites
    n = 40
    law = Disordered(PowerLaw(alpha=1.0), seed=3, amplitude=(0.5, 1.5))
    disordered = PhaseProfile(Lattice(n), law, 0.3 * math.pi)
    uniform = PhaseProfile(Lattice((5, 8), "periodic"), PowerLaw(alpha=1.0), 0.7)
    random_input = ProductInput.random(n, np.random.default_rng(4))
    sites = [0, 17, 39]
    cases = {
        "mw_disordered": lambda: meyer_wallach(disordered, ProductInput.plus(n)),
        "mw_random_input": lambda: meyer_wallach(uniform, random_input, sites),
        "coherence": lambda: [single_site_coherence(disordered, k) for k in sites],
    }
    whole = {name: np.asarray(value()) for name, value in cases.items()}
    # every population is gathered within its slab, so a slab bounds the
    # populations read at once as well as the phases
    gathered, populations = [], ProductInput.populations

    def spy(self, sites):
        gathered.append(np.size(sites))
        return populations(self, sites)

    monkeypatch.setattr(rdm, "ENV_SLAB", slab)
    monkeypatch.setattr(ProductInput, "populations", spy)
    for name, value in cases.items():
        assert np.abs(np.asarray(value()) - whole[name]).max() < 1e-13, name
    assert gathered and max(gathered) <= slab
