"""Command line front end.

Exit codes: 0 success, 2 configuration problems (an unreadable --config
too), 3 resource problems (unwritable --output, integer range, out of
memory), 4 violated numerical invariants.  --output is written whole or not
at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .equivalence import average_event_limit, decomposition_check, saffari_vaughan_average
from .errors import ConfigError, InvariantError, ResourceError
from .predictions import _check_odd_order
from .report import (
    FORMULA_NAMES,
    RunConfig,
    emit,
    format_tables,
    parse_rational,
    parse_threads,
    predict_rows,
    reproduce_tables,
    run,
)
from .sieve import EventSource
from .specfun import IDENTITY_GATE, identity_residuals
from .sweep import MAX_THREADS, Kind


def _add_window_args(p: argparse.ArgumentParser, required: bool = True):
    p.add_argument("--x", required=required, help="upper integration endpoint X")
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument("--h", help="fixed window width (rational, e.g. 100 or 1/2)")
    g.add_argument("--delta", help="scaled window width (rational, e.g. 1e-4)")


def _add_kind_arg(p: argparse.ArgumentParser):
    p.add_argument("--kind", choices=[k.value for k in Kind], help="default absolute")


def _add_threads_arg(p: argparse.ArgumentParser):
    p.add_argument(
        "--threads",
        type=parse_threads,
        default=0,
        help=f"worker processes, at most {MAX_THREADS}; 0: one per usable core, at most 8",
    )


def _add_output_args(p: argparse.ArgumentParser):
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--output", help="write to this file instead of stdout")


def _flag_config(args) -> RunConfig:
    """The window, order, kind, formula and thread flags, turned into a
    config-file object and parsed like one; or the --config file that
    replaces them all."""
    data = {
        k: v
        for k, v in vars(args).items()
        if k in ("x", "h", "delta", "orders", "kind", "formulas", "threads")
        and v is not None
    }
    if getattr(args, "config", None):
        if data:
            flags = ", ".join(f"--{k}" for k in data)
            raise ConfigError(f"--config sets the run; {flags} cannot be given with it")
        try:
            with open(args.config) as f:
                data = json.load(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from None
        except ValueError:  # json reads no integer past Python's int-to-str digit limit
            raise ConfigError(f"config {args.config} holds an integer too long to read") from None
        return RunConfig.from_dict(data)
    for key in ("orders", "formulas"):
        if key in data:
            data[key] = [tok for tok in data[key].split(",") if tok.strip()]
    if "kind" in data:
        data["kinds"] = [data.pop("kind")]
    return RunConfig.from_dict(data)


def _write_file(path: str, text: str):
    """Write ``text`` to ``path`` through a temporary file beside it, then
    os.replace: a write that fails or is killed leaves the old file, or
    none, never a partial one that looks valid."""
    head, name = os.path.split(os.path.abspath(path))
    temp = os.path.join(head, f".{name}.{os.urandom(8).hex()}.tmp")
    f = open(temp, "x")
    try:
        with f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(temp, path)
    except BaseException:
        os.remove(temp)
        raise


def _write_rows(args, rows) -> int:
    text = emit(rows, args.format)
    if args.output:
        _write_file(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_moments(args) -> int:
    return _write_rows(args, run(_flag_config(args)))


def _cmd_predict(args) -> int:
    return _write_rows(args, predict_rows(_flag_config(args)))


def _cmd_verify_identities(args) -> int:
    checks = identity_residuals()
    for name, resid in checks:
        print(f"{'ok' if resid <= IDENTITY_GATE else 'FAIL':>4}  {resid:.3e}  {name}")
    # a NaN residual fails too: it is not <= the gate, though max() would skip it
    failed = [f"{name} ({resid:.3e})" for name, resid in checks if not resid <= IDENTITY_GATE]
    if failed:
        raise InvariantError(
            f"identity residuals not within {IDENTITY_GATE:g}: {', '.join(failed)}"
        )
    print(f"all {len(checks)} identities within {IDENTITY_GATE:g}")
    return 0


def _cmd_equivalence(args) -> int:
    config = _flag_config(args)
    window = config.window()
    # every order is checked before any sweep starts
    for n in config.orders:
        _check_odd_order(n)
    # one event source, sized for the widest window either step sweeps
    limit = window.limit()
    if args.average_delta is not None:
        try:
            Delta = float(parse_rational(args.average_delta))
        except OverflowError:
            raise ConfigError(f"--average-delta {args.average_delta} is past float64") from None
        limit = max(limit, average_event_limit(config.X, Delta))
    events = EventSource(limit)
    for n in config.orders:
        rep = decomposition_check(window, n, events=events, threads=config.threads)
        print(
            f"n={n:g}: absolute={rep.absolute:.6e} signed={rep.signed:.6e} "
            f"positive={rep.positive_part:.6e} signed/normalizer={rep.ratio:.3e}"
        )
    if args.average_delta is not None:
        for n in config.orders:
            avg = saffari_vaughan_average(
                config.X, Delta, n, events=events, threads=config.threads
            )
            print(
                f"n={n:g} averaged over delta<={Delta:g}: lhs={avg.lhs:.6e} "
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
    p.add_argument(
        "--config",
        help="JSON config file holding the run; excludes the window, order, "
        "kind, formula and thread flags",
    )
    _add_window_args(p, required=False)
    p.add_argument("--orders", help="comma separated moment orders")
    _add_kind_arg(p)
    p.add_argument(
        "--formulas",
        help=f"comma separated predictions to compare ({', '.join(FORMULA_NAMES)})",
    )
    _add_threads_arg(p)
    _add_output_args(p)
    # an unset --threads stays None, so --config can tell it was not given
    p.set_defaults(func=_cmd_moments, threads=None)

    p = sub.add_parser("predict", help="evaluate prediction formulas only")
    _add_window_args(p)
    p.add_argument("--orders", required=True)
    _add_kind_arg(p)
    p.add_argument("--formulas", required=True)
    _add_output_args(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser(
        "verify-identities",
        help=f"check special function identities to a relative {IDENTITY_GATE:g}",
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
    _add_threads_arg(p)
    p.set_defaults(func=_cmd_equivalence)

    p = sub.add_parser("reproduce-tables", help="recompute the reference tables")
    p.add_argument("--scale", default="desk", choices=["desk", "full"])
    p.add_argument(
        "--formulas-only",
        action="store_true",
        help="skip the sweeps; prediction columns only",
    )
    _add_threads_arg(p)
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
        with warnings.catch_warnings():
            # one line per warning, as the errors below: no source path or line
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
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

