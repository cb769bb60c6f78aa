"""Tests of :func:`wgstate.measures.meyer_wallach`.

A distance law with the same populations at every site takes the lattice
convolution, which reads one phase row for all sites; every other input
takes one environment sweep per site.  Both are checked against reduced
states from :func:`wgstate.rdm.reduced_density`, the statevector oracle,
and, at large N, the closed form :func:`wgstate.rdm.single_site_coherence`.
Property examples are derandomized so the suite runs the same cases every
time.
"""

import math
import warnings

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
    """A lattice of up to max_sites sites under a law of the given kind; a
    Table law covers every distance on the lattice."""
    if len(boundary) == 1:
        extents = (draw(st.integers(2, max_sites)),)
    else:
        first = draw(st.integers(1, max_sites // 2))
        extents = (first, draw(st.integers(2, max_sites // first)))
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
    psi = evolve(profile, state)
    purities = [_purity(partial_trace(psi, [k])) for k in range(profile.n_sites)]
    assert meyer_wallach(profile, state) == pytest.approx(
        _from_purities(purities), abs=1e-12)


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
    psi = evolve(profile, state)
    expected = _from_purities([_purity(partial_trace(psi, [k])) for k in range(n)])
    calls = _count_phase_rows(monkeypatch, type(profile))
    assert meyer_wallach(profile, state) == pytest.approx(expected, abs=1e-12)
    # a distance law is read from its displacement table, one row to build it
    assert len(calls) == (1 if case == "random_input" else n)


def test_rejects_sites_out_of_range():
    profile = PhaseProfile(Lattice(8), PowerLaw(alpha=1.0), time=0.4)
    for sites in ([8], [-1]):
        with pytest.raises(ValueError):
            meyer_wallach(profile, ProductInput.plus(8), sites)


def test_rejects_empty_sites():
    profile = PhaseProfile(Lattice(8), PowerLaw(alpha=1.0), time=0.4)
    with pytest.raises(ValueError, match="at least one site"):
        meyer_wallach(profile, ProductInput.plus(8), [])
