"""Command-line interface.

Subcommands map one-to-one onto the library layers: ``ellipses`` and
``resonance-chart`` export the closed-form boundaries, ``map`` runs the
Floquet sweep, ``simulate`` and ``steady-state`` exercise the nonlinear
plant, and ``validate`` runs the full cross-validation battery.

Exit codes: 0 success, 1 validation failure, 2 bad input, 3 runtime or
numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .boundaries import (
    all_ellipses,
    default_map_window,
    ellipse_to_dict,
    resonance_chart,
    static_boundary_lines,
    write_ellipse_boundary_csv,
    write_resonance_chart_csv,
)
from .config import ConfigError, RunConfig, dump_config, load_config, parse_config
from .floquet import sweep, write_map_csv, write_map_metadata
from .model import ControlGains, validate
from .output import write_csv, write_json
from .plant import (
    GapClosedError,
    integrate,
    steady_state,
    steady_vehicle_state,
    write_trajectory_csv,
)
from .validation import run_battery

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BAD_INPUT = 2
EXIT_RUNTIME = 3

# moderate-speed baseline configuration used when --config is not given
DEFAULT_CONFIG = {
    "physical": {"m": 7650.0, "C": 0.05, "R": 9.71, "z0": 0.015},
    "excitation": {"A": 0.005, "Omega": 80.0, "theta": math.pi / 2.0},
}


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{flag} expects two comma-separated values, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as err:
        raise ConfigError(f"{flag} expects numbers, got {text!r}") from err
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{flag} expects finite numbers, got {text!r}")
    return lo, hi


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--grid expects nx,ny, got {text!r}")
    try:
        nx, ny = int(parts[0]), int(parts[1])
    except ValueError as err:
        raise ConfigError(f"--grid expects integers, got {text!r}") from err
    if nx < 2 or ny < 2:
        raise ConfigError("--grid dimensions must be at least 2")
    return nx, ny


def _load(args) -> RunConfig:
    if args.config is not None:
        cfg = load_config(args.config)
    else:
        cfg = parse_config(DEFAULT_CONFIG)
    if getattr(args, "theta", None) is not None:
        exc = replace(cfg.exc, theta=args.theta, v=None, d=None)
        validate(cfg.params, exc)
        cfg = replace(cfg, exc=exc)
    return cfg


def _outdir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _gains_from(args, cfg: RunConfig) -> ControlGains:
    kp = args.kp if args.kp is not None else (cfg.gains.Kp if cfg.gains else None)
    kd = args.kd if args.kd is not None else (cfg.gains.Kd if cfg.gains else None)
    if kp is None or kd is None:
        raise ConfigError("gains required: set them in the config or pass --kp and --kd")
    return ControlGains(Kp=float(kp), Kd=float(kd))


def cmd_ellipses(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    ells = all_ellipses(cfg.params, cfg.exc)
    lines = static_boundary_lines(cfg.params)
    payload = {
        "config": dump_config(cfg),
        "static_lines": {"h0": lines.h0, "slope": lines.slope},
        "ellipses": [ellipse_to_dict(e, cfg.params) for e in ells.values()],
        "version": __version__,
    }
    if args.format != "csv":
        write_json(os.path.join(out, "ellipses.json"), payload)
    if args.format != "json":
        for kind, e in ells.items():
            write_ellipse_boundary_csv(e, os.path.join(out, f"ellipse_{kind}.csv"))
    for e in ells.values():
        tag = " (degenerate)" if e.degenerate else ""
        print(
            f"kind {e.kind}: center=({e.h1:.6g}, {e.h2:.6g}) "
            f"half-axes=({e.k1:.6g}, {e.k2:.6g}){tag}"
        )
    return EXIT_OK


def cmd_map(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    nx, ny = _parse_grid(args.grid) if args.grid else (21, 21)
    if args.kp_range and args.kd_range:
        kp_range = _parse_pair(args.kp_range, "--kp")
        kd_range = _parse_pair(args.kd_range, "--kd")
    elif args.kp_range or args.kd_range:
        raise ConfigError("map needs both --kp lo,hi and --kd lo,hi (or neither)")
    else:
        kp_range, kd_range = default_map_window(cfg.params, cfg.exc)
    smap = sweep(cfg.params, cfg.exc, kp_range, kd_range, nx, ny, hyb=cfg.hybrid)
    write_map_csv(smap, os.path.join(out, "map.csv"))
    write_map_metadata(
        smap,
        os.path.join(out, "map_meta.json"),
        cfg.params,
        cfg.exc,
        __version__,
        config=dump_config(cfg),
    )
    overlay = [
        (kind, *point)
        for kind, e in all_ellipses(cfg.params, cfg.exc).items()
        if not e.degenerate
        for point in zip(*e.boundary_points(64))
    ]
    write_csv(os.path.join(out, "map_overlay.csv"), "kind,s,Kp,Kd", zip(*overlay))
    counts: dict = {}
    for row in smap.classes:
        for cls in row:
            counts[cls] = counts.get(cls, 0) + 1
    print(f"map {nx}x{ny}: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    if smap.errors:
        print(f"{len(smap.errors)} cell(s) failed; see map_meta.json", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    report = run_battery(cfg.params, cfg.exc)
    write_json(os.path.join(out, "validation.json"), report.to_json(config=dump_config(cfg)))
    for c in report.criteria:
        line = f"criterion {c.index:2d} {c.name}: {c.status.upper()}"
        if c.status == "skip":
            line += f" ({c.reason})"
        elif c.detail:
            line += f" ({c.detail})"
        print(line)
    counts = report.counts()
    print(f"passed={counts['pass']} failed={counts['fail']} skipped={counts['skip']}")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_simulate(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    gains = _gains_from(args, cfg)
    if not 0.0 < args.periods < math.inf:
        raise ConfigError(f"--periods must be a finite number > 0, got {args.periods!r}")
    dz, dphi = _parse_pair(args.perturb, "--perturb") if args.perturb else (0.0, 0.0)
    mode = "hybrid" if cfg.hybrid is not None else "standard"
    start = steady_vehicle_state(cfg.params, cfg.exc, 0.0, cfg.hybrid)
    start = replace(start, z=start.z + dz, phi=start.phi + dphi)
    t_end = args.periods * cfg.exc.period
    traj = integrate(
        start, (0.0, t_end), cfg.params, cfg.exc, gains, mode=mode, hyb=cfg.hybrid
    )
    write_trajectory_csv(traj, os.path.join(out, "trajectory.csv"))
    meta = dict(traj.meta)
    meta["config"] = dump_config(cfg)
    meta["gains"] = {"Kp": gains.Kp, "Kd": gains.Kd}
    meta["perturbation"] = {"dz": dz, "dphi": dphi}
    meta["version"] = __version__
    write_json(os.path.join(out, "trajectory_meta.json"), meta)
    if traj.aborted:
        print(
            f"gap closed at t = {traj.meta['abort_time']:.6g} s; "
            "partial trajectory written",
            file=sys.stderr,
        )
        return EXIT_RUNTIME
    print(
        f"simulated {args.periods} periods ({mode}); "
        f"final z = {traj.states[-1, 0]:.9g} m"
    )
    return EXIT_OK


def cmd_resonance_chart(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    kd_range = _parse_pair(args.kd_range, "--kd") if args.kd_range else (0.0, None)
    if kd_range[1] is None:
        # default range covers all observed intersections with margin
        scale = math.sqrt(2.0 * cfg.params.g / (cfg.params.m * cfg.params.C))
        kd_range = (0.0, 1.3 * (cfg.exc.Omega / (math.sqrt(3.0) - 1.0)) ** 2 / scale)
    chart = resonance_chart(cfg.params, cfg.exc.Omega, kd_range)
    if args.format != "json":
        write_resonance_chart_csv(chart, os.path.join(out, "resonance_chart.csv"))
    if args.format != "csv":
        write_json(
            os.path.join(out, "resonance_chart.json"),
            {
                "config": dump_config(cfg),
                "Omega": chart.Omega,
                "Kd_range": list(kd_range),
                "intersections": list(chart.intersections),
                "version": __version__,
            },
        )
    for rec in chart.intersections:
        if rec["observed"]:
            print(
                f"{rec['curve']} = {rec['level']} at Kd = {rec['Kd']:.6g} "
                f"(kind {rec['kind']}, {'in' if rec['in_range'] else 'outside'} range)"
            )
    return EXIT_OK


def cmd_steady_state(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    ts = np.linspace(0.0, cfg.exc.period, 201)
    ss = steady_state(cfg.params, cfg.exc, ts)
    fields = ("t", "gap1", "gap1_rate", "I1", "U1", "gap2", "gap2_rate", "I2", "U2")
    cols = [np.asarray(getattr(ss, f)) for f in fields]
    if args.format != "json":
        write_csv(os.path.join(out, "steady_state.csv"), ",".join(fields), cols)
    if args.format != "csv":
        write_json(
            os.path.join(out, "steady_state.json"),
            {
                "config": dump_config(cfg),
                "samples": {f: list(map(float, c)) for f, c in zip(fields, cols)},
                "version": __version__,
            },
        )
    print(
        f"steady state over one period written; at t=0: gap1 = {float(ss.gap1[0]):.6g} m, "
        f"I1 = {float(ss.I1[0]):.6g} A, U1 = {float(ss.U1[0]):.6g} V"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levstab",
        description="Stability analysis of a two-magnet suspended vehicle under periodic base excitation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file (built-in baseline if omitted)")
        p.add_argument("--out", help="output directory (default: current directory)")
        p.add_argument("--theta", type=float, help="override the excitation phase lag (rad)")
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            help="restrict outputs to one serialization where both exist",
        )

    p = sub.add_parser("ellipses", help="closed-form resonance ellipses and static lines")
    common(p)
    p.set_defaults(fn=cmd_ellipses)

    p = sub.add_parser("map", help="Floquet stability classification over a gain grid")
    common(p)
    p.add_argument("--kp", dest="kp_range", metavar="LO,HI", help="Kp range")
    p.add_argument("--kd", dest="kd_range", metavar="LO,HI", help="Kd range")
    p.add_argument("--grid", metavar="NX,NY", help="grid dimensions (default 21,21)")
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("validate", help="run the cross-validation battery")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("simulate", help="integrate the nonlinear plant from the steady state")
    common(p)
    p.add_argument("--kp", type=float, help="proportional gain (overrides config)")
    p.add_argument("--kd", type=float, help="derivative gain (overrides config)")
    p.add_argument("--periods", type=float, default=10.0, help="duration in excitation periods")
    p.add_argument("--perturb", metavar="DZ,DPHI", help="initial offsets in z (m) and phi (rad)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("resonance-chart", help="natural-frequency curves and resonance gains")
    common(p)
    p.add_argument("--kd", dest="kd_range", metavar="LO,HI", help="Kd range to sample")
    p.set_defaults(fn=cmd_resonance_chart)

    p = sub.add_parser("steady-state", help="exact periodic steady state over one period")
    common(p)
    p.set_defaults(fn=cmd_steady_state)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except GapClosedError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (RuntimeError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
