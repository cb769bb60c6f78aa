"""Every public entry point that takes a site list checks it, and the input
state, against one contract and raises the same ValueError for a breach."""

import math

import numpy as np
import pytest

from wgstate.geometry import Cutoff, EdgeProfile, Lattice, PhaseProfile, PowerLaw, time_profiles
from wgstate.graphstate import block_adjacency
from wgstate.measures import (
    block_entropy,
    block_entropy_lower,
    block_entropy_upper,
    meyer_wallach,
)
from wgstate.rdm import ProductInput, environment_product, reduced_density, trace_to

N = 30

# entry point -> call(profile, state, sites); block_adjacency takes no state
ENTRY_POINTS = {
    "environment_product": environment_product,
    "reduced_density": reduced_density,
    "block_entropy": block_entropy,
    # traced out of a 2-site outer state: no sweep, the same site checks
    "block_entropy_outer": lambda p, s, sites: block_entropy(
        p, s, sites, outer=([3, 4], np.eye(4) / 4)),
    "block_entropy_upper": block_entropy_upper,
    "block_entropy_lower": lambda p, s, sites: block_entropy_lower(p, s, sites, radius=2.0),
    "meyer_wallach": meyer_wallach,
    "block_adjacency": lambda p, s, sites: block_adjacency(p, sites),
}

SITE_CASES = {
    "empty": ([], "subset must contain at least one site"),
    "negative": ([3, -1], r"site index out of range 0\.\.29"),
    "past_end": ([3, N], r"site index out of range 0\.\.29"),
    "repeat": ([4, 5, 4], "subset contains repeated sites"),
    # in sub-blocks of 4, [10..13], [0..3], [10..13]: no adjacent pair repeats
    "spread_repeat": ([*range(10, 14), *range(4), *range(10, 14)],
                      "subset contains repeated sites"),
    # None is no subset (meyer_wallach alone reads it as every site)
    "none": (None, "sites must be a subset or a stack of equal-size subsets"),
    # a ragged list is no subset, and no stack of equal-size ones
    "ragged": ([[3, 4], [5]], "sites must be a subset or a stack of equal-size subsets"),
}

STATE_CASES = {"short_state": N - 1, "long_state": N + 1}

# entry points whose site limit is the lattice, not the exact ceiling
WHOLE_LATTICE = {"block_entropy_upper", "block_entropy_lower", "meyer_wallach",
                 "block_adjacency"}


def _cases(entry):
    cases = [c for c in SITE_CASES if (c != "spread_repeat" or entry in WHOLE_LATTICE)
             and (c != "none" or entry != "meyer_wallach")]
    return cases + ([] if entry == "block_adjacency" else list(STATE_CASES))


def _profile():
    return PhaseProfile(Lattice(N), PowerLaw(alpha=1.0), time=0.3 * math.pi)


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in ENTRY_POINTS for case in _cases(entry)])
def test_entry_points_share_one_contract(entry, case):
    if case in STATE_CASES:
        sites, message = [3, 4], f"input state has {STATE_CASES[case]} sites, the profile {N}"
        state = ProductInput.plus(STATE_CASES[case])
    else:
        (sites, message), state = SITE_CASES[case], ProductInput.plus(N)
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](_profile(), state, sites)


# trace_to(rho, sites, keep): a 3-site state traced down to part of it
TRACE_CASES = {
    "keep_outside": ([4, 6], 8, "must be distinct sites of the distinct sites"),
    "keep_empty": ([], 8, "must be distinct sites of the distinct sites"),
    "keep_repeat": ([4, 4], 8, "must be distinct sites of the distinct sites"),
    "rho_too_small": ([4], 4, r"rho of 3 sites must be 8 x 8, got \(4, 4\)"),
    "rho_too_large": ([4], 16, r"rho of 3 sites must be 8 x 8, got \(16, 16\)"),
}


@pytest.mark.parametrize("case", list(TRACE_CASES))
def test_trace_to_rejects(case):
    keep, dim, message = TRACE_CASES[case]
    with pytest.raises(ValueError, match=message):
        trace_to(np.eye(dim) / dim, [3, 4, 5], keep)


# a (B, m) stack of subsets, which environment_product and reduced_density
# sweep at once: every row meets the same contract
STACK_CASES = {
    "ragged": ([[3, 4], [5]], None, "stack of equal-size subsets"),
    "empty_stack": (np.empty((0, 2), dtype=np.intp), None, "at least one subset"),
    "empty_rows": (np.empty((2, 0), dtype=np.intp), None,
                   "subset must contain at least one site"),
    "row_repeats": ([[3, 4], [5, 5]], None, r"subset contains repeated sites: \[5, 5\]"),
    "row_past_end": ([[3, 4], [5, N]], None, r"site index out of range 0\.\.29"),
    "env_meets_a_row": ([[3, 4], [5, 6]], [0, 1, 6], "environment overlaps the subset"),
    # the width is checked before the rows' range and repeats
    "rows_too_wide": ([list(range(11)), [N] * 11], None,
                      "subset of 11 sites exceeds the limit of 10"),
    # the state before anything in the rows
    "state_before_rows": ([[3, 4], [5, N]], None,
                          f"input state has {N - 1} sites, the profile {N}"),
}

# input state size per case, the profile's where not listed
STACK_STATES = {"state_before_rows": N - 1}


@pytest.mark.parametrize("entry", ["environment_product", "reduced_density"])
@pytest.mark.parametrize("case", list(STACK_CASES))
def test_stacks_share_the_contract(entry, case):
    stack, environment, message = STACK_CASES[case]
    state = ProductInput.plus(STACK_STATES.get(case, N))
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](_profile(), state, stack, environment=environment)


# every other entry point reads a 2-D site list as one block, row after row
BLOCK_ENTRY_POINTS = {
    **{e: ENTRY_POINTS[e] for e in ENTRY_POINTS
       if e not in ("environment_product", "reduced_density", "block_entropy_outer")},
    "block_entropy_outer": lambda p, s, sites: block_entropy(
        p, s, sites, outer=([3, 4, 5, 6], reduced_density(p, s, [3, 4, 5, 6]))),
}


@pytest.mark.parametrize("entry", list(BLOCK_ENTRY_POINTS))
def test_a_2d_site_list_is_one_block(entry):
    profile, state = _profile(), ProductInput.random(N, np.random.default_rng(5))
    if entry == "block_adjacency":
        # a graph state: every phase 0 or pi
        profile = PhaseProfile(Lattice(N), Cutoff(2.0), time=math.pi)
    got = BLOCK_ENTRY_POINTS[entry](profile, state, [[3, 4], [5, 6]])
    want = BLOCK_ENTRY_POINTS[entry](profile, state, [3, 4, 5, 6])
    if entry == "block_adjacency":
        assert got.rows == want.rows
    else:
        assert np.array_equal(got, want)


# times: one subset under a PhaseProfile's lattice and law at every time
TIME_CASES = {
    "empty_times": (_profile, [3, 4], [], "non-empty 1-D sequence"),
    "times_2d": (_profile, [3, 4], [[0.1, 0.2]], "non-empty 1-D sequence"),
    "negative_time": (_profile, [3, 4], [0.1, -0.5], "finite and non-negative, got -0.5"),
    "infinite_time": (_profile, [3, 4], [math.inf], "finite and non-negative, got inf"),
    "nan_time": (_profile, [3, 4], [0.2, math.nan], "finite and non-negative, got nan"),
    "text_time": (_profile, [3, 4], ["soon"], "1-D sequence of numbers"),
    "stack_with_times": (_profile, [[3, 4], [5, 6]], [0.1], "one subset, not a stack"),
    "edge_profile": (lambda: EdgeProfile(N, {(3, 7): 1.0}), [3, 4], [0.1],
                     "times need a PhaseProfile"),
}


@pytest.mark.parametrize("entry", ["environment_product", "reduced_density"])
@pytest.mark.parametrize("case", list(TIME_CASES))
def test_time_grids_share_the_contract(entry, case):
    profile, sites, times, message = TIME_CASES[case]
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](time_profiles(profile(), times), ProductInput.plus(N), sites)
