"""Command line front end.

Exit codes: 0 success, 2 configuration problems, 3 resource problems
(unreadable file, integer range, out of memory), 4 violated numerical
invariants.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .equivalence import decomposition_check, saffari_vaughan_average, width_grid
from .errors import ConfigError, InvariantError, ResourceError
from .report import (
    FORMULA_NAMES,
    RunConfig,
    emit,
    format_tables,
    parse_rational,
    predict_rows,
    reproduce_tables,
    run,
)
from .sieve import EventSource
from .specfun import (
    duplication_residual,
    moment_constant_residual,
    sin_fourth_integral,
    sin_squared_integral,
)
from .sweep import Kind, Scaled, WindowSpec


def _add_window_args(p: argparse.ArgumentParser):
    p.add_argument("--x", required=True, help="upper integration endpoint X")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--h", help="fixed window width (rational, e.g. 100 or 1/2)")
    g.add_argument("--delta", help="scaled window width (rational, e.g. 1e-4)")


def _add_output_args(p: argparse.ArgumentParser):
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--output", help="write to this file instead of stdout")


def _flag_config(args) -> RunConfig:
    """The window, order, kind, formula and thread flags, turned into a
    config-file object and parsed like one."""
    flags = vars(args)
    data = {k: flags[k] for k in ("x", "h", "delta", "threads") if flags.get(k) is not None}
    for key in ("orders", "formulas"):
        if flags.get(key):
            data[key] = [tok for tok in flags[key].split(",") if tok.strip()]
    if "kind" in flags:
        data["kinds"] = [flags["kind"]]
    return RunConfig.from_dict(data)


def _write_rows(args, rows) -> int:
    text = emit(rows, args.format, args.output)
    if not args.output:
        sys.stdout.write(text)
    return 0


def _cmd_moments(args) -> int:
    if args.config:
        try:
            with open(args.config) as f:
                config = RunConfig.from_dict(json.load(f))
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from None
    else:
        config = _flag_config(args)
    return _write_rows(args, run(config))


def _cmd_predict(args) -> int:
    return _write_rows(args, predict_rows(_flag_config(args)))


def _cmd_verify_identities(args) -> int:
    tol = args.tolerance
    if not 0 < tol < math.inf:
        raise ConfigError(f"tolerance must be positive and finite, got {tol}")
    checks = []
    for z in (0.5, 1.0, 2.5, 10.0, 40.0, 100.0):
        checks.append((f"duplication z={z:g}", duplication_residual(z)))
    for lam in (0.5, 1.0, 1.5, 2.0, 3.0, 5.5):
        checks.append((f"moment constant lambda={lam:g}", moment_constant_residual(lam)))
    g1 = sin_squared_integral(1.0)
    checks.append(("sin^2 integral lambda=1 vs pi/2", abs(g1 - math.pi / 2) / (math.pi / 2)))
    d2 = sin_fourth_integral(2.0)
    checks.append(("sin^4 integral theta=2 vs pi/3", abs(d2 - math.pi / 3) / (math.pi / 3)))
    for lam in (0.3, 0.8, 1.3, 1.8):
        scaled = sin_squared_integral(lam, omega=2.0)
        base = sin_squared_integral(lam)
        checks.append(
            (
                f"sin^2 scaling lambda={lam:g}",
                abs(scaled - 2.0 ** lam * base) / (2.0 ** lam * base),
            )
        )
    worst = 0.0
    for name, resid in checks:
        status = "ok" if resid <= tol else "FAIL"
        print(f"{status:>4}  {resid:.3e}  {name}")
        worst = max(worst, resid)
    if worst > tol:
        raise InvariantError(f"identity residual {worst:.3e} exceeds {tol:g}")
    print(f"all {len(checks)} identities within {tol:g}")
    return 0


def _cmd_equivalence(args) -> int:
    config = _flag_config(args)
    if any(n != int(n) for n in config.orders):
        raise ConfigError(f"equivalence needs integer orders, got {args.orders}")
    orders = [int(n) for n in config.orders]
    window = config.window()
    # one event source, sized for the widest window either step sweeps
    limit = window.limit()
    if args.average_delta is not None:
        Delta = float(parse_rational(args.average_delta))
        widest = max(width_grid(config.X, Delta, args.grid_points))
        limit = max(limit, WindowSpec(config.X, Scaled(widest)).limit())
    events = EventSource(limit)
    for n in orders:
        rep = decomposition_check(window, n, events=events, threads=config.threads)
        print(
            f"n={n}: absolute={rep.absolute:.6e} signed={rep.signed:.6e} "
            f"positive={rep.positive_part:.6e} signed/normalizer={rep.ratio:.3e}"
        )
    if args.average_delta is not None:
        for n in orders:
            avg = saffari_vaughan_average(
                config.X,
                Delta,
                n,
                grid_points=args.grid_points,
                events=events,
                threads=config.threads,
            )
            print(
                f"n={n} averaged over delta<={Delta:g}: lhs={avg.lhs:.6e} "
                f"rhs={avg.rhs:.6e} ratio={avg.ratio:.4f}"
            )
    return 0


def _cmd_reproduce_tables(args) -> int:
    tables = reproduce_tables(
        args.scale,
        include_actual=not args.formulas_only,
        threads=args.threads,
    )
    sys.stdout.write(format_tables(tables))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psimoments",
        description="Exact moments of prime counts in short intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="sweep exact moments over a window family")
    p.add_argument("--config", help="JSON config file (overrides other options)")
    p.add_argument("--x", help="upper integration endpoint X")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--h", help="fixed window width (rational)")
    g.add_argument("--delta", help="scaled window width (rational)")
    p.add_argument("--orders", help="comma separated moment orders")
    p.add_argument(
        "--kind", default="absolute", choices=[k.value for k in Kind]
    )
    p.add_argument(
        "--formulas",
        help=f"comma separated predictions to compare ({', '.join(FORMULA_NAMES)})",
    )
    p.add_argument("--threads", type=int, default=0, help="0: one per core")
    _add_output_args(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("predict", help="evaluate prediction formulas only")
    _add_window_args(p)
    p.add_argument("--orders", required=True)
    p.add_argument("--kind", default="absolute", choices=[k.value for k in Kind])
    p.add_argument("--formulas", required=True)
    _add_output_args(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser(
        "verify-identities", help="check special function identities numerically"
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=1e-8,
        help="relative residual gate",
    )
    p.set_defaults(func=_cmd_verify_identities)

    p = sub.add_parser(
        "equivalence", help="positive part decomposition and smallness checks"
    )
    _add_window_args(p)
    p.add_argument("--orders", default="1,3", help="odd orders, comma separated")
    p.add_argument(
        "--average-delta",
        help="also run the width-averaged comparison up to this delta",
    )
    p.add_argument("--grid-points", type=int, default=16)
    p.add_argument("--threads", type=int, default=0, help="0: one per core")
    p.set_defaults(func=_cmd_equivalence)

    p = sub.add_parser("reproduce-tables", help="recompute the reference tables")
    p.add_argument("--scale", default="desk", choices=["desk", "full"])
    p.add_argument(
        "--formulas-only",
        action="store_true",
        help="skip the sweeps; prediction columns only",
    )
    p.add_argument("--threads", type=int, default=0, help="0: one per core")
    p.set_defaults(func=_cmd_reproduce_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize everything else
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceError, MemoryError, OSError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
