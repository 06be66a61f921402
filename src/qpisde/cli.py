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
names. A key the subcommand does not have is an error naming the file and
the key; every other line is spliced into argv as `--key=value` right after
the subcommand word, so argparse checks it as the flag and reports a bad
value in one line naming the flag, e.g. `argument --milstein-sign: invalid
choice: 'bogus'`. `stability` takes --sigma but not --mu or --x0, and
accepts --seed without using it.

Exit codes: 0 success, 2 argument/validation failure, 1 runtime/IO/memory
failure.
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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, `qpisde <sub>: error: ...`, and exits 2."""

    def error(self, message):
        message = " ".join(message.splitlines())  # an argv word may hold a newline
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qpisde",
        description="Two-step quadratic-interpolation scheme for GBM: "
                    "simulation, convergence and stability experiments.")
    sub = parser.add_subparsers(dest="command", required=True)  # subparsers are _Parsers too
    cmd = {}
    for name, func, text in (
            ("simulate", cmd_simulate, "simulate trajectories and dump them as CSV"),
            ("converge", cmd_converge, "strong-convergence error table as CSV"),
            ("stability", cmd_stability, "stability-region scan as CSV or SVG"),
            ("local-error", cmd_local_error, "one-block mean-square error vs dt as CSV")):
        p = cmd[name] = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key=value config file (flags take precedence)")
        p.add_argument("--seed", type=int, default=85, help="master seed (default %(default)s)")
        p.add_argument("--output", "-o", default="-", help="output file ('-' for stdout, the default)")
        p.add_argument("--sigma", type=float, default=0.5, help="volatility (default %(default)s)")
    for name in ("simulate", "converge", "local-error"):
        cmd[name].add_argument("--mu", type=float, default=-1.0, help="drift (default %(default)s)")
        cmd[name].add_argument("--x0", type=float, default=1.0, help="initial value (default %(default)s)")
    for name in ("simulate", "converge"):
        cmd[name].add_argument("--t-end", type=float, default=1.0, help="horizon T (default %(default)s)")
        cmd[name].add_argument("--milstein-sign", choices=("standard", "paper"), default="standard",
                               help="Milstein correction sign (default %(default)s)")

    p = cmd["simulate"]
    p.add_argument("--n", type=int, default=256, help="number of steps (default %(default)s)")
    p.add_argument("--scheme", default="qpi", help="qpi|em|iem|milstein (default %(default)s)")
    p.add_argument("--paths", type=int, default=1, help="number of paths (default %(default)s)")

    p = cmd["converge"]
    p.add_argument("--n-list", default="4,16,64,256,1024",
                   help="comma list of step counts (default %(default)s)")
    p.add_argument("--schemes", default="qpi,iem,milstein",
                   help="comma list of schemes (default %(default)s)")
    p.add_argument("--paths", type=int, default=500, help="Monte Carlo paths (default %(default)s)")

    p = cmd["stability"]
    p.add_argument("--scheme", default="qpi-paper",
                   help="qpi-paper|qpi-exact|iem|milstein (default %(default)s)")
    p.add_argument("--mu-range", default="-4:1", help="low:high (default %(default)s)")
    p.add_argument("--dt-range", default="0.01:1", help="low:high (default %(default)s)")
    p.add_argument("--grid", type=int, default=100, help="samples per axis (default %(default)s)")
    p.add_argument("--format", choices=("csv", "svg"), default="csv",
                   help="output format (default %(default)s)")

    p = cmd["local-error"]
    p.add_argument("--dt-list", default="0.125,0.0625,0.03125,0.015625,0.0078125,0.00390625",
                   help="comma list of dt values, descending (default %(default)s)")
    p.add_argument("--samples", type=int, default=100000, help="samples per dt (default %(default)s)")
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


def _config_argv(args: argparse.Namespace, argv: list[str]) -> list[str]:
    """argv with each config line spliced in as `--key=value` right after the
    subcommand word: argparse checks it as it checks the flag, and a flag on
    the command line comes later, so it wins. A key is a flag's dest, which
    argparse derives from the flag name, hence `_` back to `-`."""
    config = _load_config(args.config)
    unknown = sorted(set(config) - (set(vars(args)) - {"command", "func", "config"}))
    if unknown:
        raise InvalidInputError(
            f"{args.config}: unknown key(s) for {args.command}: {', '.join(unknown)}")
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in config.items()]
    return argv[:1] + flags + argv[1:]


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_dash_values(sys.argv[1:] if argv is None else list(argv))
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(_config_argv(args, argv))
        if not 0 <= args.seed < 1 << 64:
            raise InvalidInputError(f"--seed must be in [0, 2^64), got {args.seed}")
        # overflow is reported once, by the commands' finite-output checks
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except QpisdeError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        print(str(exc) or type(exc).__name__, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
