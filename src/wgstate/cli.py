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

    [output]             ; optional defaults for --format / --out
    format = csv
    path = out.csv

Integer-list values accept commas and inclusive ranges: '1, 4, 8:10' means
1, 4, 8, 9, 10.  Exit status: 0 on success, 1 on bad input or config, 2
when `verify` finds a mismatch against the brute-force reference.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .geometry import (
    ConfigError,
    Cutoff,
    EdgeProfile,
    PhaseProfile,
    centered_block,
    parse_lattice,
    parse_law,
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
)
from .oracle import partial_trace, random_instance
from .oracle import evolve as brute_force_evolve
from .rdm import A_MAX, ProductInput, reduced_density


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on bad flags; keep 2 reserved for
    # verification failures and report usage problems as exit 1 instead
    def error(self, message):
        raise _UsageError(message)


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


def _task_items(cp: configparser.ConfigParser) -> dict:
    return dict(cp.items("task")) if cp.has_section("task") else {}


def _build_profile(cp: configparser.ConfigParser) -> PhaseProfile:
    lattice = parse_lattice(_section(cp, "lattice"))
    law = parse_law(_section(cp, "law"))
    time_items = _section(cp, "time")
    if "t_over_pi" not in time_items:
        raise ConfigError("missing key 't_over_pi' in section [time]")
    try:
        t_over_pi = float(time_items["t_over_pi"])
    except ValueError:
        raise ConfigError(
            f"key 't_over_pi': expected a number, got {time_items['t_over_pi']!r}"
        ) from None
    return PhaseProfile(lattice, law, t_over_pi * math.pi)


def _build_state(cp: configparser.ConfigParser, n_sites: int,
                 seed: int) -> ProductInput:
    kind = "plus"
    if cp.has_section("state"):
        kind = cp.get("state", "kind", fallback="plus").strip().lower()
    if kind == "plus":
        return ProductInput.plus(n_sites)
    if kind == "random":
        return ProductInput.random(n_sites, np.random.default_rng(seed))
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


def _task_int(items: dict, key: str, default=None) -> int:
    if key not in items:
        if default is None:
            raise ConfigError(f"missing key '{key}' in section [task]")
        return default
    try:
        return int(items[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {items[key]!r}") from None


def _task_float(items: dict, key: str, default=None) -> float:
    if key not in items:
        if default is None:
            raise ConfigError(f"missing key '{key}' in section [task]")
        return default
    try:
        return float(items[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {items[key]!r}") from None


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _config_echo(cp) -> list[str]:
    lines = []
    for section in cp.sections():
        for key, value in cp.items(section):
            lines.append(f"{section}.{key} = {value}")
    return lines


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_table(args, cp, columns: list[str], rows: list[tuple],
                 started: float, summary: dict | None = None) -> None:
    wall = time.perf_counter() - started
    fmt = args.format
    path = args.out
    if cp is not None and cp.has_section("output"):
        if fmt is None:
            fmt = cp.get("output", "format", fallback=None)
        if path is None:
            path = cp.get("output", "path", fallback=None)
    fmt = (fmt or "csv").lower()
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r} (csv|json)")
    echo = _config_echo(cp) if cp is not None else []
    if fmt == "csv":
        lines = [f"# wgstate {__version__}",
                 f"# command: {args.command}"]
        lines += [f"# config: {line}" for line in echo]
        lines += [f"# seed: {args.seed}"]
        for key, value in (summary or {}).items():
            lines.append(f"# {key}: {_format_cell(value)}")
        lines += [f"# wall_seconds: {wall:.3f}",
                  ",".join(columns)]
        lines += [",".join(_format_cell(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "tool": "wgstate",
            "version": __version__,
            "command": args.command,
            "config": echo,
            "seed": args.seed,
            "summary": summary or {},
            "wall_seconds": round(wall, 3),
            "columns": columns,
            "rows": [list(row) for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _pmap(fn, items, threads: int):
    """Map over grid points, in order, optionally on a thread pool."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------

def _run_correlations(args) -> int:
    """[task] separations = <int list>; site = <int> (default center).

    One row per separation r: pair correlations between `site` and
    `site + r` along the linear index (interior pairs of a chain).
    """
    started = time.perf_counter()
    cp = _load_config(args.config)
    profile = _build_profile(cp)
    state = _build_state(cp, profile.n_sites, args.seed)
    items = _task_items(cp)
    site = _task_int(items, "site", default=profile.n_sites // 2)
    if "separations" not in items:
        raise ConfigError("missing key 'separations' in section [task]")
    seps = _parse_int_list(items["separations"], "separations")
    for r in seps:
        if not 0 <= site + r < profile.n_sites:
            raise ConfigError(f"separation {r} puts the partner outside the lattice")

    def one(r: int):
        rho = reduced_density(profile, state, [site, site + r])
        return (r, max_correlation(correlation_matrix(rho)), concurrence(rho),
                concurrence_of_assistance(rho))

    rows = _pmap(one, seps, args.threads)
    _write_table(args, cp, ["separation", "q_max", "concurrence", "assistance_upper"],
                 rows, started)
    return 0


def _contiguous_block(profile, items: dict, size: int) -> np.ndarray:
    if "start" in items:
        start = _task_int(items, "start")
        if start < 0 or start + size > profile.n_sites:
            raise ConfigError(f"block {start}..{start + size - 1} outside lattice")
        return np.arange(start, start + size)
    if profile.lattice.dimension == 1:
        start = (profile.n_sites - size) // 2
        return np.arange(start, start + size)
    return centered_block(profile.lattice, size)


def _run_entropy_scan(args) -> int:
    """[task] sizes = <int list>; m = <int> sub-block size (default 4);
    radius = <float> kept-environment radius (default 4); start = <int>
    (default: centered block).

    One row per block size L: exact entropy (blank above the exact
    ceiling), the sub-block upper bound, and the truncated-environment
    lower bound.
    """
    started = time.perf_counter()
    cp = _load_config(args.config)
    profile = _build_profile(cp)
    state = _build_state(cp, profile.n_sites, args.seed)
    items = _task_items(cp)
    sizes = _parse_int_list(items.get("sizes", f"1:{A_MAX}"), "sizes")
    m = _task_int(items, "m", default=4)
    radius = _task_float(items, "radius", default=4.0)

    def one(size: int):
        block = _contiguous_block(profile, items, size)
        exact = block_entropy(profile, state, block) if size <= A_MAX else None
        upper = block_entropy_upper(profile, state, block, m=m, exact=exact)
        lower = block_entropy_lower(profile, state, block, radius)
        return (size, exact, upper, lower)

    rows = _pmap(one, sizes, args.threads)
    _write_table(args, cp, ["size", "exact", "upper", "lower"], rows, started)
    return 0


def _run_bounds_scan(args) -> int:
    """[task] size = <int> block size; ms = <int list> sub-block sizes
    (default 1:5); radii = <int list> environment radii (default 0:5);
    start = <int> (default centered).

    Sweeps the bound parameters at fixed block size to show how the
    bracket tightens: one row per (m, radius) value, lists zipped side by
    side.
    """
    started = time.perf_counter()
    cp = _load_config(args.config)
    profile = _build_profile(cp)
    state = _build_state(cp, profile.n_sites, args.seed)
    items = _task_items(cp)
    size = _task_int(items, "size")
    ms = _parse_int_list(items.get("ms", "1:5"), "ms")
    radii = _parse_int_list(items.get("radii", "0:5"), "radii")
    block = _contiguous_block(profile, items, size)

    uppers = _pmap(lambda m: block_entropy_upper(profile, state, block, m=m),
                   ms, args.threads)
    lowers = _pmap(lambda r: block_entropy_lower(profile, state, block, float(r)),
                   radii, args.threads)
    rows = []
    for i in range(max(len(ms), len(radii))):
        m = ms[i] if i < len(ms) else None
        upper = uppers[i] if i < len(ms) else None
        radius = radii[i] if i < len(radii) else None
        lower = lowers[i] if i < len(radii) else None
        rows.append((size, m, upper, radius, lower))
    _write_table(args, cp, ["size", "m", "upper", "radius", "lower"], rows, started)
    return 0


def _run_dynamics(args) -> int:
    """[task] grid = lo:hi:steps in units of pi (default 0:1:21);
    l_max = <int> largest block size (default 4); separation = <int>
    pair separation for q_max (default 1).

    One row per time: block entropies S_1..S_l_max for centered blocks,
    the pair correlation strength at the given separation, and the global
    (average single-site) entanglement.
    """
    started = time.perf_counter()
    cp = _load_config(args.config)
    base = _build_profile(cp)
    state = _build_state(cp, base.n_sites, args.seed)
    items = _task_items(cp)
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
    l_max = _task_int(items, "l_max", default=4)
    if l_max < 1 or l_max > min(A_MAX, base.n_sites):
        raise ConfigError(f"key 'l_max': must be in 1..{min(A_MAX, base.n_sites)}")
    separation = _task_int(items, "separation", default=1)
    site = base.n_sites // 2
    if not 0 <= site + separation < base.n_sites:
        raise ConfigError(f"separation {separation} puts the pair outside the lattice")
    ts = np.linspace(lo, hi, steps)

    def one(t_over_pi: float):
        profile = PhaseProfile(base.lattice, base.law, t_over_pi * math.pi)
        entropies = [block_entropy(profile, state, _contiguous_block(profile, items, l))
                     for l in range(1, l_max + 1)]
        pair = reduced_density(profile, state, [site, site + separation])
        q = max_correlation(correlation_matrix(pair))
        return (t_over_pi, *entropies, q, meyer_wallach(profile, state))

    rows = _pmap(one, [float(t) for t in ts], args.threads)
    columns = (["t_over_pi"] + [f"s_{l}" for l in range(1, l_max + 1)]
               + ["q_max", "e_mw"])
    _write_table(args, cp, columns, rows, started)
    return 0


def _run_graph_rank(args) -> int:
    """[task] sides = <int list> of centered-block side lengths, or
    block = <int list> of explicit sites; or edges = <path> plus
    n_sites = <int> and block = <int list> to rank an edge-list file.

    One row per block: entropy as the GF(2) rank of the block-vs-rest
    edge matrix, the closed-form value where it applies (cutoff law,
    enough margin), and the connected-vertex count for comparison.
    """
    started = time.perf_counter()
    cp = _load_config(args.config)
    items = _task_items(cp)
    if "edges" in items:
        n_sites = _task_int(items, "n_sites")
        profile = EdgeProfile.from_edges(n_sites, read_edge_list(items["edges"]))
        lattice = None
    else:
        profile = _build_profile(cp)
        lattice = profile.lattice

    def analytic_cell(side: int):
        # closed form only holds for a cutoff law with the block at least
        # `reach` away from any boundary effect
        if lattice is None or not isinstance(profile.law, Cutoff):
            return None
        reach = profile.law.reach
        if any((extent - side) // 2 < reach for extent in lattice.extents):
            return None
        return analytic_block_entropy(lattice.dimension, side, reach)

    rows = []
    if "block" in items:
        block = np.asarray(_parse_int_list(items["block"], "block"))
        gamma = block_adjacency(profile, block)
        rows.append((f"block[{block.size}]", gf2_rank(gamma), None,
                     connected_vertex_count(gamma)))
    elif "sides" in items:
        if lattice is None:
            raise ConfigError("key 'sides' needs a [lattice] section, not an edge list")
        for side in _parse_int_list(items["sides"], "sides"):
            block = centered_block(lattice, side)
            gamma = block_adjacency(profile, block)
            rows.append((str(side), gf2_rank(gamma), analytic_cell(side),
                         connected_vertex_count(gamma)))
    else:
        raise ConfigError("need key 'sides' or 'block' in section [task]")
    _write_table(args, cp, ["block", "rank_entropy", "analytic_entropy",
                            "vertex_count"], rows, started)
    return 0


def _run_mw(args) -> int:
    """[task] sample = <int> (optional): average over that many random
    sites instead of all of them (estimator, flagged in the output)."""
    started = time.perf_counter()
    cp = _load_config(args.config)
    profile = _build_profile(cp)
    state = _build_state(cp, profile.n_sites, args.seed)
    items = _task_items(cp)
    summary = None
    sites = None
    if "sample" in items:
        count = _task_int(items, "sample")
        if not 1 <= count <= profile.n_sites:
            raise ConfigError(f"key 'sample': must be in 1..{profile.n_sites}")
        rng = np.random.default_rng(args.seed)
        sites = np.sort(rng.choice(profile.n_sites, size=count, replace=False))
        summary = {"estimator": f"sampled {count} of {profile.n_sites} sites"}
    value = meyer_wallach(profile, state, sites)
    _write_table(args, cp, ["n_sites", "t_over_pi", "e_mw"],
                 [(profile.n_sites, profile.time / math.pi, value)],
                 started, summary)
    return 0


def _run_verify(args) -> int:
    """Fast path vs brute-force statevector on random small instances."""
    started = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    rows = []
    failures = 0
    worst = 0.0
    for i in range(args.instances):
        profile, state, sites = random_instance(rng, args.n_max, args.a_max)
        fast = reduced_density(profile, state, sites)
        psi = brute_force_evolve(profile, state)
        slow = partial_trace(psi, sites)
        gap = np.linalg.eigvalsh(fast - slow)
        distance = 0.5 * float(np.abs(gap).sum())
        worst = max(worst, distance)
        ok = distance < args.tolerance
        failures += 0 if ok else 1
        rows.append((i, profile.n_sites, len(sites), distance,
                     "ok" if ok else "FAIL"))
    _write_table(args, None, ["instance", "n_sites", "subset", "distance", "status"],
                 rows, started, {"max_distance": worst,
                                 "tolerance": args.tolerance})
    if failures:
        print(f"verify: {failures}/{args.instances} instances beyond tolerance "
              f"{args.tolerance}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wgstate",
                     description="Exact reduced states and entanglement measures "
                                 "for spins under long-range diagonal couplings.")
    parser.add_argument("--version", action="version",
                        version=f"wgstate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True,
                           help="INI file with [lattice], [law], [time] sections")
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default=None,
                       help="output format (default: csv)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for independent grid points")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for random inputs")

    p = sub.add_parser("correlations",
                       help="pair correlations and entanglement vs separation")
    common(p)
    p.set_defaults(func=_run_correlations)

    p = sub.add_parser("entropy-scan",
                       help="block entropy (exact and bounds) vs block size")
    common(p)
    p.set_defaults(func=_run_entropy_scan)

    p = sub.add_parser("bounds-scan",
                       help="entropy bound tightness vs bound parameters")
    common(p)
    p.set_defaults(func=_run_bounds_scan)

    p = sub.add_parser("dynamics",
                       help="entropies, correlations, and global entanglement vs time")
    common(p)
    p.set_defaults(func=_run_dynamics)

    p = sub.add_parser("graph-rank",
                       help="block entropy of graph states via GF(2) rank")
    common(p)
    p.set_defaults(func=_run_graph_rank)

    p = sub.add_parser("mw", help="global (average single-site) entanglement")
    common(p)
    p.set_defaults(func=_run_mw)

    p = sub.add_parser("verify",
                       help="cross-check the fast path against a statevector")
    common(p, needs_config=False)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--n-max", type=int, default=12, dest="n_max")
    p.add_argument("--a-max", type=int, default=5, dest="a_max")
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.set_defaults(func=_run_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
