"""Command-line front end: reproducible experiments emitting CSV/SVG files.

Subcommands:
    simulate    exact vs. numerical trajectories on one or more paths
    converge    strong-convergence table over a refinement ladder
    stability   (mu, dt) stability-region scan at fixed sigma
    local-error mean-square one-block error vs. dt, with fitted slope

Every subcommand is deterministic for fixed flags and seed. Flags override
an optional `key=value` config file (--config), which overrides built-in
defaults; the defaults mirror the reference experiment settings
(mu=-1, sigma=0.5, x0=1, T=1). Config keys are the subcommand's long flag
names; an unknown key or a value the flag would reject is an error.

Exit codes: 0 success, 2 argument/validation failure, 1 runtime/IO failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import _csvtext, analysis, brownian, stability
from .errors import InvalidInputError, QpisdeError
from .model import GbmParams, exact_solution
from .schemes import SchemeId, integrate


def _load_config(path: str) -> dict:
    """Parse a line-based `key=value` config file; `#` starts a comment."""
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInputError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InvalidInputError(f"expected a number, got {text!r}") from None


def _parse_floats(text: str) -> list[float]:
    items = [s for s in text.replace(" ", "").split(",") if s]
    if not items:
        raise InvalidInputError("expected a comma-separated list of numbers")
    return [_number(s) for s in items]


def _parse_ints(text: str) -> list[int]:
    values = _parse_floats(text)
    for v in values:
        if not v.is_integer():
            raise InvalidInputError(f"expected a list of integers, got {v:g}")
    return [int(v) for v in values]


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise InvalidInputError(f"expected a range low:high, got {text!r}")
    return _number(parts[0]), _number(parts[1])


def _require_finite(values, what: str) -> None:
    """Refuse to write output that overflowed to inf or nan."""
    if not np.all(np.isfinite(values)):
        raise InvalidInputError(f"{what} overflowed to inf or nan; no output written")


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _gbm_params(args) -> GbmParams:
    return GbmParams(mu=args.mu, sigma=args.sigma, x0=args.x0)


def cmd_simulate(args) -> int:
    params = _gbm_params(args)
    t_end, n, seed, n_paths = args.t_end, args.n, args.seed, args.paths
    scheme = SchemeId.parse(args.scheme)
    if n_paths < 1:
        raise InvalidInputError(f"--paths must be >= 1, got {n_paths}")
    w = brownian.generate_path([brownian.mix_seed(seed, k) for k in range(n_paths)], t_end, n)
    approx = integrate(scheme, params, t_end, w, milstein_sign=args.milstein_sign)
    if n_paths == 1:
        header = "t,exact,approx"
        columns = np.concatenate((exact_solution(params, t_end, w), approx))
    else:
        header = "t," + ",".join(f"path_{k + 1}" for k in range(n_paths))
        columns = approx
    _require_finite(columns, "simulated trajectory")
    t = np.linspace(0.0, t_end, n + 1)
    text = _csvtext.join(header, n + 1, len(columns) + 1, lambda rows: _csvtext.fields(
        np.column_stack((t[rows], columns[:, rows].T))))
    _write_output(args.output, text)
    return 0


def cmd_converge(args) -> int:
    schemes = [SchemeId.parse(s) for s in args.schemes.split(",")]
    table = analysis.convergence_study(schemes, _gbm_params(args), _parse_ints(args.n_list),
                                       args.paths, args.seed, t_end=args.t_end,
                                       milstein_sign=args.milstein_sign)
    _require_finite([(r.l1, r.l2, r.linf) for r in table.rows], "error norm")
    _write_output(args.output, table.to_csv())
    return 0


def cmd_stability(args) -> int:
    mu_range, dt_range = _parse_range(args.mu_range), _parse_range(args.dt_range)
    grid = stability.region_scan(args.scheme, args.sigma, mu_range, dt_range, args.grid)
    text = stability.region_to_csv(grid) if args.format == "csv" else stability.region_to_svg(grid)
    _write_output(args.output, text)
    return 0


def cmd_local_error(args) -> int:
    report = analysis.local_error_study(_gbm_params(args), _parse_floats(args.dt_list),
                                        args.samples, args.seed)
    _require_finite(report.mean_sq, "local error")
    _write_output(args.output, report.to_csv())
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file (flags take precedence)")
    p.add_argument("--mu", type=float, default=-1.0, help="drift (default %(default)s)")
    p.add_argument("--sigma", type=float, default=0.5, help="volatility (default %(default)s)")
    p.add_argument("--x0", type=float, default=1.0, help="initial value (default %(default)s)")
    p.add_argument("--seed", type=int, default=85, help="master seed (default %(default)s)")
    p.add_argument("--output", "-o", default="-", help="output file ('-' for stdout, the default)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpisde",
        description="Two-step quadratic-interpolation scheme for GBM: "
                    "simulation, convergence and stability experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate trajectories and dump them as CSV")
    _add_common(p)
    p.add_argument("--t-end", type=float, dest="t_end", default=1.0, help="horizon T (default %(default)s)")
    p.add_argument("--n", type=int, default=256, help="number of steps (default %(default)s)")
    p.add_argument("--scheme", default="qpi", help="qpi|em|iem|milstein (default %(default)s)")
    p.add_argument("--paths", type=int, default=1, help="number of paths (default %(default)s)")
    p.add_argument("--milstein-sign", dest="milstein_sign", choices=("standard", "paper"),
                   default="standard", help="Milstein correction sign (default %(default)s)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("converge", help="strong-convergence error table as CSV")
    _add_common(p)
    p.add_argument("--t-end", type=float, dest="t_end", default=1.0, help="horizon T (default %(default)s)")
    p.add_argument("--n-list", dest="n_list", default="4,16,64,256,1024",
                   help="comma list of step counts (default %(default)s)")
    p.add_argument("--schemes", default="qpi,iem,milstein",
                   help="comma list of schemes (default %(default)s)")
    p.add_argument("--paths", type=int, default=500, help="Monte Carlo paths (default %(default)s)")
    p.add_argument("--milstein-sign", dest="milstein_sign", choices=("standard", "paper"),
                   default="standard", help="Milstein correction sign (default %(default)s)")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("stability", help="stability-region scan as CSV or SVG")
    _add_common(p)
    p.add_argument("--scheme", default="qpi-paper",
                   help="qpi-paper|qpi-exact|iem|milstein (default %(default)s)")
    p.add_argument("--mu-range", dest="mu_range", default="-4:1", help="low:high (default %(default)s)")
    p.add_argument("--dt-range", dest="dt_range", default="0.01:1", help="low:high (default %(default)s)")
    p.add_argument("--grid", type=int, default=100, help="samples per axis (default %(default)s)")
    p.add_argument("--format", choices=("csv", "svg"), default="csv",
                   help="output format (default %(default)s)")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("local-error", help="one-block mean-square error vs dt as CSV")
    _add_common(p)
    p.add_argument("--dt-list", dest="dt_list",
                   default="0.125,0.0625,0.03125,0.015625,0.0078125,0.00390625",
                   help="comma list of dt values, descending (default %(default)s)")
    p.add_argument("--samples", type=int, default=100000, help="samples per dt (default %(default)s)")
    p.set_defaults(func=cmd_local_error)
    return parser


def _is_negative_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return token.startswith("-")


def _join_dash_values(argv: list[str]) -> list[str]:
    """Join `--mu -1e-3` into `--mu=-1e-3` and `--mu-range -4:1` into
    `--mu-range=-4:1`. argparse reads any token that starts with '-' as an
    option unless it is a plain negative number (no exponent, no range)."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok.startswith("--") and "=" not in tok and i + 1 < len(argv)
                and (tok in ("--mu-range", "--dt-range") or _is_negative_number(argv[i + 1]))):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  argv: list[str]) -> argparse.Namespace:
    """Parse argv again with the config file's values as the subcommand's
    defaults, so flags still win and each value passes its flag's type and choices."""
    config = _load_config(args.config)
    unknown = sorted(set(config) - (set(vars(args)) - {"command", "func", "config"}))
    if unknown:
        raise InvalidInputError(
            f"{args.config}: unknown key(s) for {args.command}: {', '.join(unknown)}")
    # argparse keeps no public handle on a subcommand's parser
    subparser = parser._subparsers._group_actions[0].choices[args.command]
    subparser.set_defaults(**config)
    args = parser.parse_args(argv)
    for action in subparser._actions:  # argparse checks choices on flags, not on defaults
        if action.choices is not None and getattr(args, action.dest) not in action.choices:
            raise InvalidInputError(f"{args.config}: {action.dest} must be one of "
                                    f"{', '.join(action.choices)}, got {getattr(args, action.dest)!r}")
    return args


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_dash_values(sys.argv[1:] if argv is None else list(argv))
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _apply_config(parser, args, argv)
        # overflow is reported once, by the commands' finite-output checks
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except QpisdeError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
