"""Command-line front end.

Every subcommand reads an INI config describing the physical setup and
writes a small table (CSV with '#' metadata comments, or JSON) to stdout
or --out.  Schema:

    [lattice]
    extents = 100        ; comma-separated positive integers, one per axis
    boundary = open      ; open | periodic, single value or one per axis

    [law]
    variant = power      ; power | exponential | cutoff | table | disordered
    alpha = 3.0          ; power: exponent; exponential: kappa; cutoff: lambda
                         ; table: table = 1:0.5, 2:0.25
                         ; disordered: base = <variant>, seed = 7,
                         ;             amplitude = uniform(0.5, 1.5)

    [time]
    t_over_pi = 0.3      ; evolution time in units of pi (t=0.3pi, t=pi exact)

    [state]              ; optional; defaults to kind = plus
    kind = plus          ; plus | random (random is seeded by --seed)

    [task]               ; subcommand parameters, see each runner below

Integer-list values accept commas and inclusive ranges: '1, 4, 8:10' means
1, 4, 8, 9, 10.  On a lattice of dimension d >= 2 the block sizes `sizes`,
`size`, `l_max` and `sides` are side lengths of a centered box, and the
key `start` (a chain's block start) is rejected.  Exit status: 0 on
success, 1 on bad input or config, 2 when `verify` finds a mismatch
against the brute-force reference.

Runner contract: each subcommand is one entry of ``_COMMANDS``, a runner
``(args, cp, items) -> _Table`` and its help line.  :func:`main` parses
the flags, starts the clock, loads the config (``cp`` is None for
`verify`, which takes none), hands the runner the ``[task]`` items, writes
the table it returns and exits with the table's status.  A runner raises
:class:`ConfigError` (or ValueError / OSError) for bad input, which main
reports as exit status 1.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from . import __version__
from .geometry import (
    ConfigError,
    Cutoff,
    EdgeProfile,
    PhaseProfile,
    _parse_float,
    _parse_int,
    _require,
    centered_block,
    parse_lattice,
    parse_law,
    time_profiles,
)
from .graphstate import (
    analytic_block_entropy,
    block_adjacency,
    connected_vertex_count,
    gf2_rank,
    read_edge_list,
)
from .measures import (
    block_entropy,
    block_entropy_lower,
    block_entropy_upper,
    concurrence,
    concurrence_of_assistance,
    correlation_matrix,
    max_correlation,
    meyer_wallach,
    trace_distance,
)
from .oracle import N_MAX, partial_trace, random_instance
from .oracle import evolve as brute_force_evolve
from .rdm import A_MAX, ProductInput, reduced_density


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on bad flags; keep 2 reserved for
    # verification failures and report usage problems as exit 1 instead
    def error(self, message):
        raise _UsageError(message)


class _Table(NamedTuple):
    """What a runner returns: the output table and the exit status."""
    columns: list[str]
    rows: list[tuple]
    summary: dict | None = None
    status: int = 0


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    return cp


def _section(cp: configparser.ConfigParser, name: str) -> dict:
    if not cp.has_section(name):
        raise ConfigError(f"missing section [{name}]")
    return dict(cp.items(name))


def _build_profile(cp: configparser.ConfigParser) -> PhaseProfile:
    lattice = parse_lattice(_section(cp, "lattice"))
    law = parse_law(_section(cp, "law"))
    t_over_pi = _parse_float(_require(_section(cp, "time"), "t_over_pi", "time"),
                             "t_over_pi")
    return PhaseProfile(lattice, law, t_over_pi * math.pi)


def _profile_and_state(args, cp) -> tuple[PhaseProfile, ProductInput]:
    profile = _build_profile(cp)
    kind = "plus"
    if cp.has_section("state"):
        kind = cp.get("state", "kind", fallback="plus").strip().lower()
    if kind == "plus":
        return profile, ProductInput.plus(profile.n_sites)
    if kind == "random":
        return profile, ProductInput.random(profile.n_sites,
                                            np.random.default_rng(args.seed))
    raise ConfigError(f"key 'kind': unknown input state {kind!r} (plus|random)")


def _parse_int_list(text: str, key: str) -> list[int]:
    """Accepts '2, 3, 4' and inclusive ranges 'lo:hi' or 'lo:hi:step'."""
    out: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" in tok:
            parts = tok.split(":")
            if len(parts) not in (2, 3):
                raise ConfigError(f"key {key!r}: bad range {tok!r} (lo:hi[:step])")
            try:
                lo, hi = int(parts[0]), int(parts[1])
                step = int(parts[2]) if len(parts) == 3 else 1
            except ValueError:
                raise ConfigError(f"key {key!r}: bad range {tok!r}") from None
            if step < 1:
                raise ConfigError(f"key {key!r}: step must be positive in {tok!r}")
            out.extend(range(lo, hi + 1, step))
        else:
            try:
                out.append(int(tok))
            except ValueError:
                raise ConfigError(f"key {key!r}: expected integers, got {tok!r}") from None
    if not out:
        raise ConfigError(f"key {key!r}: empty list")
    return out


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_table(args, cp, table: _Table, wall: float) -> None:
    echo = [] if cp is None else [f"{section}.{key} = {value}"
                                  for section in cp.sections()
                                  for key, value in cp.items(section)]
    summary = table.summary or {}
    if args.format == "csv":
        lines = [f"# wgstate {__version__}",
                 f"# command: {args.command}"]
        lines += [f"# config: {line}" for line in echo]
        lines += [f"# seed: {args.seed}"]
        lines += [f"# {key}: {_format_cell(value)}" for key, value in summary.items()]
        lines += [f"# wall_seconds: {wall:.3f}",
                  ",".join(table.columns)]
        lines += [",".join(_format_cell(v) for v in row) for row in table.rows]
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "tool": "wgstate",
            "version": __version__,
            "command": args.command,
            "config": echo,
            "seed": args.seed,
            "summary": summary,
            "wall_seconds": round(wall, 3),
            "columns": table.columns,
            "rows": [list(row) for row in table.rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------

def _pair(profile, site: int, separation: int, key: str) -> list[int]:
    """[site, site + separation], two different sites of the lattice, or a
    ConfigError naming the key at fault: 'site', or ``key`` for the
    separation."""
    if not 0 <= site < profile.n_sites:
        raise ConfigError(f"key 'site': {site} is outside the lattice 0..{profile.n_sites - 1}")
    if separation == 0:
        raise ConfigError(f"key '{key}': a pair needs two sites, not 0")
    if not 0 <= site + separation < profile.n_sites:
        raise ConfigError(f"key '{key}': separation {separation} puts the partner "
                          "outside the lattice")
    return [site, site + separation]


def _run_correlations(args, cp, items) -> _Table:
    """[task] separations = <int list>; site = <int> (default center).

    One row per separation r: pair correlations between `site` and
    `site + r` along the linear index (interior pairs of a chain).  Every
    pair's state comes from one sweep, and each measure takes them all at once.
    """
    profile, state = _profile_and_state(args, cp)
    site = _parse_int(items.get("site", str(profile.n_sites // 2)), "site")
    seps = _parse_int_list(_require(items, "separations", "task"), "separations")
    rhos = reduced_density(profile, state, [_pair(profile, site, r, "separations") for r in seps])
    columns = (max_correlation(correlation_matrix(rhos)), concurrence(rhos),
               concurrence_of_assistance(rhos))
    return _Table(["separation", "q_max", "concurrence", "assistance_upper"],
                  list(zip(seps, *(c.tolist() for c in columns))))


def _contiguous_block(profile, items: dict, size: int) -> np.ndarray:
    if "start" in items:
        if profile.lattice.dimension >= 2:
            raise ConfigError("key 'start': only a chain takes a block start")
        start = _parse_int(items["start"], "start")
        if start < 0 or start + size > profile.n_sites:
            raise ConfigError(f"key 'start': block {start}..{start + size - 1} is outside "
                              f"the lattice 0..{profile.n_sites - 1}")
        return np.arange(start, start + size)
    return centered_block(profile.lattice, size)


def _run_entropy_scan(args, cp, items) -> _Table:
    """[task] sizes = <int list>; m = <int> sub-block size (default 4);
    radius = <float> kept-environment radius (default 4); start = <int>
    (chains only; default: centered block).

    One row per block size L: exact entropy (blank once the block has more
    than A_MAX sites), the sub-block upper bound, and the
    truncated-environment lower bound.  Only the largest exact block is
    swept; the nested smaller ones are traced out of its ρ.
    """
    profile, state = _profile_and_state(args, cp)
    sizes = _parse_int_list(items.get("sizes", f"1:{A_MAX}"), "sizes")
    m = _parse_int(items.get("m", "4"), "m")
    radius = _parse_float(items.get("radius", "4"), "radius")
    blocks = [_contiguous_block(profile, items, size) for size in sizes]
    largest = max(blocks, key=lambda block: block.size if block.size <= A_MAX else 0)
    if largest.size <= A_MAX:
        outer = (largest, reduced_density(profile, state, largest))

    def one(size: int, block: np.ndarray):
        exact = block_entropy(profile, state, block, outer) if block.size <= A_MAX else None
        upper = block_entropy_upper(profile, state, block, m=m, exact=exact)
        lower = block_entropy_lower(profile, state, block, radius)
        return (size, exact, upper, lower)

    return _Table(["size", "exact", "upper", "lower"], [one(*row) for row in zip(sizes, blocks)])


def _run_bounds_scan(args, cp, items) -> _Table:
    """[task] size = <int> block size; ms = <int list> sub-block sizes
    (default 1:5); radii = <int list> environment radii (default 0:5);
    start = <int> (chains only; default centered).

    Sweeps the bound parameters at fixed block size to show how the
    bracket tightens: one row per (m, radius) value, lists zipped side by
    side.
    """
    profile, state = _profile_and_state(args, cp)
    size = _parse_int(_require(items, "size", "task"), "size")
    ms = _parse_int_list(items.get("ms", "1:5"), "ms")
    radii = _parse_int_list(items.get("radii", "0:5"), "radii")
    block = _contiguous_block(profile, items, size)

    uppers = [block_entropy_upper(profile, state, block, m=m) for m in ms]
    lowers = [block_entropy_lower(profile, state, block, float(r)) for r in radii]
    rows = [(size, m, upper, radius, lower) for (m, upper), (radius, lower)
            in zip_longest(zip(ms, uppers), zip(radii, lowers), fillvalue=(None, None))]
    return _Table(["size", "m", "upper", "radius", "lower"], rows)


def _run_dynamics(args, cp, items) -> _Table:
    """[task] grid = lo:hi:steps in units of pi (default 0:1:21);
    l_max = <int> largest block size (default 4); separation = <int>, not 0
    (default 1): the q_max pair is `site` and `site + separation` along
    the linear index, `site` the center one.

    One row per time: block entropies S_1..S_l_max for centered blocks,
    the pair correlation strength at the given separation, and the global
    (average single-site) entanglement.  The grid takes two sweeps, each
    over every time at once: one of the largest block, out of whose states
    the nested smaller ones are traced, and one of the pair.
    """
    base, state = _profile_and_state(args, cp)
    grid_text = items.get("grid", "0:1:21")
    parts = grid_text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"key 'grid': expected lo:hi:steps, got {grid_text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"key 'grid': expected lo:hi:steps, got {grid_text!r}") from None
    if steps < 1 or (steps > 1 and not hi > lo):
        raise ConfigError("key 'grid': need steps >= 1 and hi > lo")
    l_max = _parse_int(items.get("l_max", "4"), "l_max")
    if l_max < 1 or l_max > min(A_MAX, base.n_sites):
        raise ConfigError(f"key 'l_max': must be in 1..{min(A_MAX, base.n_sites)}")
    separation = _parse_int(items.get("separation", "1"), "separation")
    pair_sites = _pair(base, base.n_sites // 2, separation, "separation")
    blocks = [_contiguous_block(base, items, l) for l in range(1, l_max + 1)]
    if blocks[-1].size > A_MAX:
        raise ConfigError(f"key 'l_max': block {l_max} has {blocks[-1].size} sites, "
                          f"more than the exact limit of {A_MAX}")

    grid = np.linspace(lo, hi, steps).tolist()
    profiles = time_profiles(base, [t_over_pi * math.pi for t_over_pi in grid])
    outer = (blocks[-1], reduced_density(profiles, state, blocks[-1]))
    entropies = [block_entropy(base, state, block, outer).tolist() for block in blocks]
    pair = reduced_density(profiles, state, pair_sites)
    q = max_correlation(correlation_matrix(pair)).tolist()
    e_mw = [meyer_wallach(profile, state) for profile in profiles]
    rows = list(zip(grid, *entropies, q, e_mw))
    columns = (["t_over_pi"] + [f"s_{l}" for l in range(1, l_max + 1)]
               + ["q_max", "e_mw"])
    return _Table(columns, rows)


def _run_graph_rank(args, cp, items) -> _Table:
    """[task] sides = <int list> of centered-block side lengths, or
    block = <int list> of explicit sites; or edges = <path> plus
    n_sites = <int> and block = <int list> to rank an edge-list file.

    One row per block: entropy as the GF(2) rank of the block-vs-rest
    edge matrix, the closed-form value where it applies (cutoff law,
    enough margin), and the connected-vertex count for comparison.
    """
    if "edges" in items:
        n_sites = _parse_int(_require(items, "n_sites", "task"), "n_sites")
        profile = EdgeProfile.from_edges(n_sites, read_edge_list(items["edges"], n_sites))
        lattice = None
    else:
        profile = _build_profile(cp)
        lattice = profile.lattice

    def analytic_cell(side: int):
        # closed form only holds for a cutoff law with the block at least
        # floor(reach) layers away from any boundary effect
        if not isinstance(profile.law, Cutoff):
            return None
        reach = profile.law.reach
        if any((extent - side) // 2 < math.floor(reach) for extent in lattice.extents):
            return None
        return analytic_block_entropy(lattice.dimension, side, reach)

    def row(label: str, block, analytic=None):
        gamma = block_adjacency(profile, block)
        return (label, gf2_rank(gamma), analytic, connected_vertex_count(gamma))

    if "block" in items:
        block = np.asarray(_parse_int_list(items["block"], "block"))
        rows = [row(f"block[{block.size}]", block)]
    elif "sides" in items:
        if lattice is None:
            raise ConfigError("key 'sides' needs a [lattice] section, not an edge list")
        rows = [row(str(side), centered_block(lattice, side), analytic_cell(side))
                for side in _parse_int_list(items["sides"], "sides")]
    else:
        raise ConfigError("need key 'sides' or 'block' in section [task]")
    return _Table(["block", "rank_entropy", "analytic_entropy", "vertex_count"], rows)


def _run_mw(args, cp, items) -> _Table:
    """[task] sample = <int> (optional): average over that many random
    sites instead of all of them (estimator, flagged in the output)."""
    profile, state = _profile_and_state(args, cp)
    summary = None
    sites = None
    if "sample" in items:
        count = _parse_int(items["sample"], "sample")
        if not 1 <= count <= profile.n_sites:
            raise ConfigError(f"key 'sample': must be in 1..{profile.n_sites}")
        rng = np.random.default_rng(args.seed)
        sites = np.sort(rng.choice(profile.n_sites, size=count, replace=False))
        summary = {"estimator": f"sampled {count} of {profile.n_sites} sites"}
    value = meyer_wallach(profile, state, sites)
    return _Table(["n_sites", "t_over_pi", "e_mw"],
                  [(profile.n_sites, profile.time / math.pi, value)], summary)


def _run_verify(args, cp, items) -> _Table:
    """Fast path vs brute-force statevector on random small instances:
    --instances at least 1, --n-max in 4..N_MAX, --a-max in 1..A_MAX."""
    if args.instances < 1:
        raise ValueError(f"--instances must be at least 1, got {args.instances}")
    for flag, value, lo, hi in [("--n-max", args.n_max, 4, N_MAX),
                                ("--a-max", args.a_max, 1, A_MAX)]:
        if not lo <= value <= hi:
            raise ValueError(f"{flag} must be in {lo}..{hi}, got {value}")
    rng = np.random.default_rng(args.seed)
    rows = []
    failures = 0
    worst = 0.0
    for i in range(args.instances):
        profile, state, sites = random_instance(rng, args.n_max, args.a_max)
        fast = reduced_density(profile, state, sites)
        psi = brute_force_evolve(profile, state)
        distance = trace_distance(fast, partial_trace(psi, sites))
        worst = max(worst, distance)
        ok = distance < args.tolerance
        failures += 0 if ok else 1
        rows.append((i, profile.n_sites, len(sites), distance,
                     "ok" if ok else "FAIL"))
    if failures:
        print(f"verify: {failures}/{args.instances} instances beyond tolerance "
              f"{args.tolerance}", file=sys.stderr)
    return _Table(["instance", "n_sites", "subset", "distance", "status"], rows,
                  {"max_distance": worst, "tolerance": args.tolerance},
                  2 if failures else 0)


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "correlations": (_run_correlations,
                     "pair correlations and entanglement vs separation"),
    "entropy-scan": (_run_entropy_scan,
                     "block entropy (exact and bounds) vs block size"),
    "bounds-scan": (_run_bounds_scan,
                    "entropy bound tightness vs bound parameters"),
    "dynamics": (_run_dynamics,
                 "entropies, correlations, and global entanglement vs time"),
    "graph-rank": (_run_graph_rank, "block entropy of graph states via GF(2) rank"),
    "mw": (_run_mw, "global (average single-site) entanglement"),
    "verify": (_run_verify, "cross-check the fast path against a statevector"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wgstate",
                     description="Exact reduced states and entanglement measures "
                                 "for spins under long-range diagonal couplings.")
    parser.add_argument("--version", action="version",
                        version=f"wgstate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (runner, text) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=runner)
        if runner is not _run_verify:
            p.add_argument("--config", required=True,
                           help="INI file with [lattice], [law], [time] sections")
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv",
                       help="output format (default: csv)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for random inputs")
    verify = sub.choices["verify"]
    verify.add_argument("--instances", type=int, default=200)
    verify.add_argument("--n-max", type=int, default=12, dest="n_max")
    verify.add_argument("--a-max", type=int, default=5, dest="a_max")
    verify.add_argument("--tolerance", type=float, default=1e-10)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        started = time.perf_counter()
        cp = _load_config(args.config) if "config" in args else None
        items = dict(cp.items("task")) if cp is not None and cp.has_section("task") else {}
        table = args.func(args, cp, items)
        _write_table(args, cp, table, time.perf_counter() - started)
        return table.status
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
