"""Command-line interface.

Subcommands map one-to-one onto the library layers: ``ellipses`` and
``resonance-chart`` export the closed-form boundaries, ``map`` runs the
Floquet sweep, ``simulate`` and ``steady-state`` exercise the nonlinear
plant, and ``validate`` runs the full cross-validation battery.

Importing this module runs only the standard library.  The command
modules are the package's lazy ones and run on first use, so each command
loads only the modules it reaches, numpy included.

Exit codes: 0 success, 1 validation failure, 2 bad input, 3 runtime or
numerical failure, including running out of memory and a product that
cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import warnings

from . import __version__, boundaries, config, floquet, model, output, plant, validation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BAD_INPUT = 2
EXIT_RUNTIME = 3

# moderate-speed baseline configuration used when --config is not given
DEFAULT_CONFIG = {
    "physical": {"m": 7650.0, "C": 0.05, "R": 9.71, "z0": 0.015},
    "excitation": {"A": 0.005, "Omega": 80.0, "theta": math.pi / 2.0},
}


def _parse_pair(text: str, flag: str, kind=float) -> tuple:
    """Two comma-separated finite values, each converted by ``kind``
    (``float`` or ``int``)."""
    parts = text.split(",")
    if len(parts) != 2:
        raise config.ConfigError(f"{flag} expects two comma-separated values, got {text!r}")
    try:
        lo, hi = kind(parts[0]), kind(parts[1])
    except ValueError as err:
        raise config.ConfigError(f"{flag} expects {kind.__name__} values, got {text!r}") from err
    if not all(abs(v) <= sys.float_info.max for v in (lo, hi)):  # inf, NaN or an int no float can hold
        raise config.ConfigError(f"{flag} expects finite numbers, got {text!r}")
    return lo, hi


def _load(args) -> config.RunConfig:
    """The run's configuration; a warning raised while it is parsed, such
    as the kinematic caveat, is printed as one ``warning:`` line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.config is not None:
            cfg = config.load_config(args.config)
        else:
            cfg = config.parse_config(DEFAULT_CONFIG)
    for caveat in caught:
        print(f"warning: {caveat.message}", file=sys.stderr)
    if getattr(args, "theta", None) is not None:
        from dataclasses import replace

        exc = replace(cfg.exc, theta=args.theta, v=None, d=None)
        model.validate(cfg.params, exc, cfg.hybrid)
        cfg = cfg._replace(exc=exc)
    return cfg


def _outdir(args) -> str:
    out = args.out or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as err:
        raise config.ConfigError(f"--out {out} is not a usable directory: {err.strerror or err}") from err
    return out


def _gains_from(args, cfg: config.RunConfig) -> model.ControlGains:
    kp = args.kp if args.kp is not None else (cfg.gains.Kp if cfg.gains else None)
    kd = args.kd if args.kd is not None else (cfg.gains.Kd if cfg.gains else None)
    if kp is None or kd is None:
        raise config.ConfigError("gains required: set them in the config or pass --kp and --kd")
    return model.ControlGains(Kp=float(kp), Kd=float(kd))


def _write_products(
    args, cfg: config.RunConfig, out: str, tables: dict, name: str, doc: dict, finite: bool = False
) -> None:
    """Write the CSV tables ``{file: (header, columns)}`` and the JSON
    document ``doc``, with the run's ``config`` and the package ``version``
    added, as ``name`` into ``out``; a command's ``--format`` keeps one of
    the two kinds.  With ``finite``, a NaN or infinite number in a product
    to be written raises ``ArithmeticError`` naming the product and its
    column, and no product is written."""
    fmt = getattr(args, "format", None)
    tables = {} if fmt == "json" else tables
    doc = None if fmt == "csv" else doc
    if finite:
        _require_finite(tables, name, doc)
    for file, (header, columns) in tables.items():
        output.write_csv(os.path.join(out, file), header, columns)
    if doc is not None:
        doc = {**doc, "config": config.dump_config(cfg), "version": __version__}
        output.write_json(os.path.join(out, name), doc)


def _require_finite(tables: dict, name: str, doc) -> None:
    """Raise ``ArithmeticError`` at the first CSV column of ``tables``, or
    else the first key of the JSON document ``doc`` (None for none),
    that holds NaN or an infinite number."""
    import numpy as np

    for file, (header, columns) in tables.items():
        for column, values in zip(header.split(","), columns):
            if not np.isfinite(values).all():
                raise ArithmeticError(f"{file}: NaN or inf in column {column}; no product written")
    key = _nonfinite_key(doc)
    if key is not None:
        raise ArithmeticError(f"{name}: NaN or inf in {key}; no product written")


def _nonfinite_key(value, key=None):
    """The key under which the JSON value ``value`` first holds NaN or an
    infinite number, ``key`` for a bare number; None if it holds none."""
    if isinstance(value, float):
        return None if math.isfinite(value) else key
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = ((key, item) for item in value)
    else:
        return None
    for k, v in items:
        found = _nonfinite_key(v, k)
        if found is not None:
            return found
    return None


def _unwarned():
    """A context in which numpy warns of no floating-point error: a
    closed-form command refuses a NaN or inf it has computed, with
    ``_write_products(..., finite=True)``, instead of warning about it."""
    import numpy as np

    return np.errstate(all="ignore")


def cmd_ellipses(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    with _unwarned():
        ells = boundaries.all_ellipses(cfg.params, cfg.exc)
        lines = boundaries.static_boundary_lines(cfg.params)
        tables = {f"ellipse_{kind}.csv": ("s,Kp,Kd", e.boundary_points()) for kind, e in ells.items()}
        doc = {
            "static_lines": {"h0": lines.h0, "slope": lines.slope},
            "ellipses": [boundaries.ellipse_to_dict(e, cfg.params) for e in ells.values()],
        }
    _write_products(args, cfg, out, tables, "ellipses.json", doc, finite=True)
    for e in ells.values():
        tag = " (degenerate)" if e.degenerate else ""
        print(
            f"kind {e.kind}: center=({e.h1:.6g}, {e.h2:.6g}) "
            f"half-axes=({e.k1:.6g}, {e.k2:.6g}){tag}"
        )
    return EXIT_OK


def cmd_map(args) -> int:
    cfg = _load(args)
    nx, ny = _parse_pair(args.grid, "--grid", int) if args.grid else (21, 21)
    if args.kp_range and args.kd_range:
        kp_range = _parse_pair(args.kp_range, "--kp")
        kd_range = _parse_pair(args.kd_range, "--kd")
    elif args.kp_range or args.kd_range:
        raise config.ConfigError("map needs both --kp lo,hi and --kd lo,hi (or neither)")
    else:
        kp_range, kd_range = boundaries.default_map_window(cfg.params, cfg.exc)
    smap = floquet.sweep(cfg.params, cfg.exc, kp_range, kd_range, nx, ny, hyb=cfg.hybrid)
    out = _outdir(args)
    floquet.write_map_csv(smap, os.path.join(out, "map.csv"))
    meta_path = os.path.join(out, "map_meta.json")
    floquet.write_map_metadata(smap, meta_path, cfg.exc, __version__, config.dump_config(cfg))
    overlay = [
        (kind, *point)
        for kind, e in boundaries.all_ellipses(cfg.params, cfg.exc).items()
        if not e.degenerate
        for point in zip(*e.boundary_points())
    ]
    output.write_csv(os.path.join(out, "map_overlay.csv"), "kind,s,Kp,Kd", zip(*overlay))
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
    output.resolve_workers()  # a bad LEVSTAB_THREADS is bad input, not criterion 9 failing
    cfg = _load(args)
    out = _outdir(args)
    report = validation.run_battery(cfg.params, cfg.exc)
    _write_products(args, cfg, out, {}, "validation.json", report.to_json())
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
    from dataclasses import replace

    cfg = _load(args)
    gains = _gains_from(args, cfg)
    if not 0.0 < args.periods < math.inf:
        raise config.ConfigError(f"--periods must be a finite number > 0, got {args.periods!r}")
    t_span = (0.0, args.periods * cfg.exc.period)
    if not 0.0 < t_span[1] < math.inf:
        raise config.ConfigError(
            f"--periods {args.periods!r} of {cfg.exc.period!r} s each is no finite duration > 0 s"
        )
    dz, dphi = _parse_pair(args.perturb, "--perturb") if args.perturb else (0.0, 0.0)
    mode = "hybrid" if cfg.hybrid is not None else "standard"
    start = plant.steady_vehicle_state(cfg.params, cfg.exc, 0.0, cfg.hybrid)
    start = replace(start, z=start.z + dz, phi=start.phi + dphi)
    t_eval = plant.output_grid(t_span, cfg.exc)
    output.resolve_workers()  # a bad LEVSTAB_THREADS, like a bad grid, creates no --out
    out = _outdir(args)
    path = os.path.join(out, "trajectory.csv")
    with output.csv_stream(path, plant.TRAJECTORY_CSV_HEADER, t_eval.size) as sink:
        traj = plant.integrate(
            start, t_span, cfg.params, cfg.exc, gains, mode=mode, hyb=cfg.hybrid,
            t_eval=t_eval, sink=sink,
        )
    if sink is None:  # no writer was forked
        plant.write_trajectory_csv(traj, path)
    meta = {
        **traj.meta,
        "gains": {"Kp": gains.Kp, "Kd": gains.Kd},
        "perturbation": {"dz": dz, "dphi": dphi},
    }
    _write_products(args, cfg, out, {}, "trajectory_meta.json", meta)
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
    kd_range = _parse_pair(args.kd_range, "--kd") if args.kd_range else None
    with _unwarned():
        chart = boundaries.resonance_chart(cfg.params, cfg.exc.Omega, kd_range)
    out = _outdir(args)
    fields = ("Kd", "omega1", "omega2", "sum", "difference")
    _write_products(
        args, cfg, out,
        {"resonance_chart.csv": (",".join(fields), [getattr(chart, f) for f in fields])},
        "resonance_chart.json",
        {"Omega": chart.Omega, "Kd_range": list(chart.Kd_range), "intersections": list(chart.intersections)},
        finite=True,
    )
    for rec in chart.intersections:
        if rec["observed"]:
            print(
                f"{rec['curve']} = {rec['level']} at Kd = {rec['Kd']:.6g} "
                f"(kind {rec['kind']}, {'in' if rec['in_range'] else 'outside'} range)"
            )
    return EXIT_OK


def cmd_steady_state(args) -> int:
    import numpy as np

    cfg = _load(args)
    out = _outdir(args)
    ts = np.linspace(0.0, cfg.exc.period, 201)
    fields = ("t", "gap1", "gap1_rate", "I1", "U1", "gap2", "gap2_rate", "I2", "U2")
    with _unwarned():
        ss = model.steady_state(cfg.params, cfg.exc, ts, cfg.hybrid)
        cols = [np.asarray(getattr(ss, f)) for f in fields]
    _write_products(
        args, cfg, out,
        {"steady_state.csv": (",".join(fields), cols)},
        "steady_state.json",
        {"samples": {f: list(map(float, c)) for f, c in zip(fields, cols)}},
        finite=True,
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

    def formats(p):
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            help="restrict outputs to one serialization where both exist",
        )

    p = sub.add_parser("ellipses", help="closed-form resonance ellipses and static lines")
    common(p)
    formats(p)
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
    formats(p)
    p.add_argument("--kd", dest="kd_range", metavar="LO,HI", help="Kd range to sample")
    p.set_defaults(fn=cmd_resonance_chart)

    p = sub.add_parser("steady-state", help="exact periodic steady state over one period")
    common(p)
    formats(p)
    p.set_defaults(fn=cmd_steady_state)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, ArithmeticError, MemoryError, OSError) as err:
        return _failure(err)


def _failure(err: Exception) -> int:
    """Print ``err`` as the command's one ``error:`` line and return its
    exit code: bad input for a ``ValueError`` (``ConfigError`` included),
    a runtime failure for anything else."""
    if isinstance(err, ValueError):
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
    return EXIT_RUNTIME


def entry() -> None:
    """The ``levstab`` console script and ``python -m levstab.cli``: run
    ``main`` and exit with its code.

    A command is one short run that keeps what it loads to the end, so
    ``entry`` turns cyclic garbage collection off (``gc.disable``) before
    ``main``, and no collection traverses the import heap while the
    command runs.  After ``main`` it flushes stdout and stderr and leaves
    by ``os._exit``, as the forked sweep chunks and CSV writer do,
    skipping the interpreter's teardown: every product is already in
    place and every child reaped.  A stdout that cannot be flushed, a
    closed pipe above all, is reported like any failed write, with one
    ``error:`` line and exit code 3.  ``main`` does none of this, since
    the tests call it in-process.

    It also sets ``OPENBLAS_NUM_THREADS`` to 1 unless the caller has set
    it, before any command imports numpy.  No BLAS call levstab makes is
    large enough to use a second thread, yet OpenBLAS starts one at
    import that busy-waits for about 100 ms of CPU, taken on two CPUs
    from the second process ``output.resolve_workers`` allows: the forked
    child that formats ``simulate``'s CSV or runs the sweep's second
    chunk.  ``main`` and library use leave the environment as it is.
    """
    import gc

    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    try:
        code = main()
    except SystemExit as stop:  # argparse's --help, --version and usage errors
        code = stop.code
    try:
        sys.stdout.flush()
    except OSError as err:
        code = _failure(err)
    with contextlib.suppress(OSError):  # a closed stderr leaves nowhere to report
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
