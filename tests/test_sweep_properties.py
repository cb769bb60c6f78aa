"""Property tests of the environment sweep, :func:`wgstate.rdm.environment_product`.

The sweep computes half of the 3^m difference classes, mirrors the rest by
complex conjugation, skips environment sites whose phases to the subset
are exactly 0 and works in cache-sized chunks over slabs of sites.  For a
law of distance alone it reads phases from the cached displacement table
and looks only inside the subset's near box.  Each of those shortcuts is
checked here against the one-class-at-a-time reference
:func:`wgstate.rdm.environment_factor` and, for the assembled matrix,
against the statevector oracle.  Examples are derandomized so the suite
runs the same cases every time.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import wgstate.rdm as rdm
from wgstate.geometry import (
    TWO_PI,
    Cutoff,
    EdgeProfile,
    Exponential,
    Lattice,
    PhaseProfile,
    PowerLaw,
    Table,
)
from wgstate.oracle import evolve, partial_trace
from wgstate.rdm import (
    ProductInput,
    environment_factor,
    environment_product,
    reduced_density,
)

FEW = settings(max_examples=25, deadline=None, derandomize=True)

# np.mod(-5e-324, 2*pi) rounds to exactly 2*pi; phase reduction returns that
# full turn as 0.0, so the site is pruned like one listed at 0.0
_FULL_TURN = -5e-324
_PHASES = st.one_of(st.sampled_from([0.0, _FULL_TURN, math.pi]),
                    st.floats(0.0, TWO_PI, allow_nan=False))
_TIMES = st.one_of(st.sampled_from([0.0, math.pi, TWO_PI]),
                   st.floats(0.0, TWO_PI, allow_nan=False))


@st.composite
def profiles(draw, n):
    """A PowerLaw, Exponential or Cutoff chain, or a random EdgeProfile, of n sites."""
    kind = draw(st.sampled_from(["power", "exponential", "cutoff", "edges"]))
    if kind == "edges":
        pairs = list(itertools.combinations(range(n), 2))
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n))
        return EdgeProfile(n, {pair: draw(_PHASES) for pair in chosen})
    if kind == "power":
        law = PowerLaw(draw(st.floats(0.3, 4.0)))
    elif kind == "exponential":
        law = Exponential(draw(st.floats(0.2, 40.0)))
    else:
        law = Cutoff(float(draw(st.integers(0, 3))))
    lattice = Lattice(n, draw(st.sampled_from(["open", "periodic"])))
    return PhaseProfile(lattice, law, draw(_TIMES))


@st.composite
def states(draw, n):
    if draw(st.booleans()):
        return ProductInput.plus(n)
    return ProductInput.random(n, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))


@st.composite
def instances(draw, n_max=12, m_max=4):
    """(profile, state, subset, environment): an unsorted subset of up to
    m_max sites (possibly all of them), and either the default environment
    or an explicit, possibly empty, part of the rest."""
    n = draw(st.integers(2, n_max))
    order = draw(st.permutations(range(n)))
    m = draw(st.integers(1, min(m_max, n)))
    sites, rest = order[:m], order[m:]
    environment = None
    if draw(st.booleans()):
        environment = rest[:draw(st.integers(0, len(rest)))]
    return draw(profiles(n)), draw(states(n)), sites, environment


def _classes(m):
    """Every difference class d in table order, with bit strings x, y of d = x - y."""
    for code, d in enumerate(itertools.product((-1, 0, 1), repeat=m)):
        d = np.array(d)
        yield code, (d == 1).astype(np.int64), (d == -1).astype(np.int64)


def _assert_matches_factor(table, profile, state, sites, environment, tol=1e-12):
    assert table.shape == (3 ** len(sites),)
    for code, x, y in _classes(len(sites)):
        direct = environment_factor(profile, state, sites, x, y, environment=environment)
        assert abs(table[code] - direct) < tol, (code, table[code], direct)


@FEW
@given(instances())
def test_every_class_matches_environment_factor(case):
    profile, state, sites, environment = case
    table = environment_product(profile, state, sites, environment)
    _assert_matches_factor(table, profile, state, sites, environment)


@FEW
@given(instances(n_max=40, m_max=6))
def test_opposite_classes_are_conjugate(case):
    profile, state, sites, environment = case
    table = environment_product(profile, state, sites, environment)
    assert np.abs(table[::-1] - table.conj()).max() < 1e-14
    # d = 0 is the product of p0 + p1 over the environment, 1 up to rounding
    assert abs(table[table.size // 2] - 1.0) < 1e-12


@FEW
@given(st.data())
def test_empty_and_fully_pruned_environments(data):
    n = data.draw(st.integers(3, 12), label="n")
    m = data.draw(st.integers(1, min(4, n - 1)), label="m")
    state = data.draw(states(n), label="state")
    # couplings inside the subset and inside the environment, none across
    inside = [pair for pair in itertools.combinations(range(n), 2)
              if (pair[0] < m) == (pair[1] < m)]
    chosen = data.draw(st.lists(st.sampled_from(inside), unique=True), label="edges")
    profile = EdgeProfile(n, {pair: data.draw(_PHASES) for pair in chosen})
    sites = list(range(m))
    table = environment_product(profile, state, sites)
    p0, p1 = state.populations(range(m, n))
    assert np.abs(table - np.prod(p0 + p1)).max() < 1e-15
    _assert_matches_factor(table, profile, state, sites, None)
    assert np.array_equal(environment_product(profile, state, sites, environment=[]),
                          np.ones(3 ** m))


@FEW
@given(st.data())
def test_chunk_and_slab_boundaries(data):
    # chunks of c sites and slabs of s sites, with an environment of one
    # site less than, exactly, or one more than a whole number of chunks
    m = data.draw(st.integers(1, 3), label="m")
    c = data.draw(st.integers(1, 4), label="chunk")
    n_env = max(0, c * data.draw(st.integers(1, 4), label="chunks")
                + data.draw(st.sampled_from([-1, 0, 1]), label="offset"))
    slab = data.draw(st.integers(1, n_env + 2), label="slab")
    n = n_env + m + 2
    profile = PhaseProfile(Lattice(n), PowerLaw(data.draw(st.floats(0.5, 3.0))),
                           data.draw(st.floats(0.1, TWO_PI)))
    state = data.draw(states(n), label="state")
    sites = data.draw(st.permutations(range(n)), label="order")[:m]
    rest = [l for l in range(n) if l not in sites]
    environment = data.draw(st.permutations(rest), label="environment")[:n_env]
    whole = environment_product(profile, state, sites, environment)
    saved = rdm._CHUNK_BUDGET, rdm.ENV_SLAB
    try:
        rdm._CHUNK_BUDGET = c * (3 ** m + 1) // 2
        rdm.ENV_SLAB = slab
        table = environment_product(profile, state, sites, environment)
    finally:
        rdm._CHUNK_BUDGET, rdm.ENV_SLAB = saved
    assert np.abs(table - whole).max() < 1e-14
    _assert_matches_factor(table, profile, state, sites, environment)


@FEW
@given(instances(n_max=12, m_max=5))
def test_reduced_density_matches_oracle(case):
    profile, state, sites, _ = case
    fast = reduced_density(profile, state, sites)
    slow = partial_trace(evolve(profile, state), sites)
    assert 0.5 * np.abs(np.linalg.eigvalsh(fast - slow)).sum() < 1e-10


# -- near field ----------------------------------------------------------

NEAR = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def lattices(draw, max_sites):
    """A 1-3-D lattice of 2..max_sites sites, each axis open or periodic."""
    extents = []
    for _ in range(draw(st.integers(1, 3))):
        room = max_sites // math.prod(extents, start=1)
        if room < 2:
            break
        extents.append(draw(st.integers(1, min(room, 30))))
    if math.prod(extents) < 2:
        extents[0] = 2
    boundary = [draw(st.sampled_from(["open", "periodic"])) for _ in extents]
    return Lattice(extents, boundary)


@st.composite
def near_profiles(draw, max_sites):
    """A distance law whose phases reach only part of the lattice (a cutoff,
    an exponential that underflows to 0, a table, one with finite support)
    or a sparse edge profile."""
    lattice = draw(lattices(max_sites))
    n = lattice.n_sites
    kind = draw(st.sampled_from(["cutoff", "exponential", "table", "finite", "edges"]))
    if kind == "edges":
        pairs = list(itertools.combinations(range(n), 2))
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n))
        return EdgeProfile(n, {pair: draw(_PHASES) for pair in chosen})
    if kind == "cutoff":
        law = Cutoff(draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 0.0])))
    elif kind == "exponential":
        # exp(-kappa r) is exactly 0 once kappa r > 745
        law = Exponential(draw(st.floats(20.0, 400.0)))
    else:
        r = np.unique(np.concatenate([lattice.distances(k, np.arange(n))
                                      for k in range(n)]))
        f = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 3.0)),
                          min_size=r.size, max_size=r.size))
        if kind == "finite":
            cut = draw(st.integers(1, r.size))
            f = f[:cut] + [0.0] * (r.size - cut)
        law = Table(dict(zip(r.tolist(), f)))
    return PhaseProfile(lattice, law, draw(st.one_of(st.just(math.pi), st.floats(0.1, 6.0))))


@st.composite
def near_states(draw, n):
    """|+> or a random input, half the time with populations summing to
    1 + 9e-13, the most the input accepts: then every environment site's
    p0 + p1 shows in the table at the 1e-12 level, folded or swept."""
    amps = draw(states(n)).amplitudes
    if draw(st.booleans()):
        amps = amps * math.sqrt(1.0 + 9e-13)
    return ProductInput(amps)


@st.composite
def near_instances(draw, max_sites, m_max):
    """(profile, state, subset, environment) with subset sites drawn
    towards the lattice's faces, so that boxes meet its edges and wrap
    across periodic axes, and the default or an explicit environment."""
    profile = draw(near_profiles(max_sites))
    n = profile.n_sites
    if isinstance(profile, EdgeProfile):
        pick = st.integers(0, n - 1)
    else:
        lattice = profile.lattice
        pick = st.tuples(*[st.one_of(st.sampled_from([0, e - 1]), st.integers(0, e - 1))
                           for e in lattice.extents]).map(lattice.site_index)
    m = draw(st.integers(1, min(m_max, n)))
    sites = draw(st.lists(pick, min_size=m, max_size=m, unique=True))
    environment = None
    if draw(st.booleans()):
        rest = draw(st.permutations([l for l in range(n) if l not in sites]))
        environment = rest[:draw(st.integers(0, len(rest)))]
    return profile, draw(near_states(n)), sites, environment


@NEAR
@given(near_instances(max_sites=150, m_max=3))
def test_near_field_matches_environment_factor(case):
    profile, state, sites, environment = case
    table = environment_product(profile, state, sites, environment)
    scale = abs(table[table.size // 2])     # d = 0: prod of p0 + p1, ~1
    _assert_matches_factor(table, profile, state, sites, environment,
                           tol=1e-12 * scale)


@NEAR
@given(near_instances(max_sites=12, m_max=4))
def test_near_field_matches_oracle(case):
    profile, state, sites, _ = case
    fast = reduced_density(profile, state, sites)
    slow = partial_trace(evolve(profile, state), sites)
    assert 0.5 * np.abs(np.linalg.eigvalsh(fast - slow)).sum() < 1e-10


def test_pairs_read_one_phase_row(monkeypatch):
    # the sweep and the pair's own phase both read the displacement table,
    # built once per profile
    n = 2000
    profile = PhaseProfile(Lattice(n), Exponential(1.0), 0.3 * math.pi)
    state = ProductInput.random(n, np.random.default_rng(11))
    sizes = []
    row = PhaseProfile.phase_row

    def counted(self, k, ls):
        sizes.append(np.size(ls))
        return row(self, k, ls)

    monkeypatch.setattr(PhaseProfile, "phase_row", counted)
    for r in range(1, 65):
        reduced_density(profile, state, [n // 2, n // 2 + r])
    assert sizes == [n - 1]
