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
value in one line naming the flag, e.g. `argument --format: invalid choice:
'png'`. Each flag's argparse type checks its value, so a bad list
item (an empty one too), range, count or seed fails the same way. `stability`
takes --sigma but not --mu or --x0, and accepts --seed without using it.

A command whose main arrays would hold more than MAX_VALUES float64 values
exits 2, naming its size flags, before it draws or allocates anything. Every writer
returns ASCII chunks, written only once all are built: as bytes to the -o
file, opened in binary mode, or decoded to stdout for `-o -`.

Every failure is one stderr line, `qpisde <sub>: error: <message>`, and `main`
exits as argparse does: 2 for bad input, 1 for IO or memory; success returns 0.
"""

from __future__ import annotations

import argparse
import io
import sys

import numpy as np

from . import _csvtext, analysis, brownian, stability
from .errors import InvalidInputError, QpisdeError
from .model import GbmParams, exact_solution
from .schemes import SchemeId, integrate

# the work-size budget: 2**26 float64 values (512 MiB) in a command's main arrays. With
# temporaries and CSV text, peak RSS grew 13-15x the count for stability, 5-7x for the others
MAX_VALUES = 1 << 26


def _load_config(path: str) -> dict:
    """Parse a line-based UTF-8 `key=value` config file; `#` starts a comment."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:  # newline=None splits lines as a file opened in text mode does
        lines = io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text: byte {exc.start} is {data[exc.start]:#04x}") from None
    cfg = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
        key, value = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


# argparse types: argparse prints an ArgumentTypeError's text after `argument
# --flag:`, but replaces the text of any other ValueError with its own
def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _floats(text: str) -> list[float]:
    return [_number(s) for s in text.split(",")]


def _ints(text: str) -> list[int]:
    values = _floats(text)
    for v in values:
        if not v.is_integer():
            raise argparse.ArgumentTypeError(f"expected a list of integers, got {v:g}")
    return [int(v) for v in values]


def _range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected a range low:high, got {text!r}")
    return _number(parts[0]), _number(parts[1])


def _int_in(low: int, high: float = np.inf, bounds: str = ""):
    """An int in [low, high), which `bounds` says (default `>= low`)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"must be {bounds or f'>= {low}'}, got {value}")
        return value
    return parse


def _check_size(values: int, flags: str) -> None:
    """Refuse a run whose main arrays, not temporaries or CSV text, would exceed MAX_VALUES values."""
    if values > MAX_VALUES:
        raise InvalidInputError(f"{flags}: the run would hold {values:.3g} values at once, "
                                f"more than the limit of {MAX_VALUES}")


def _require_finite(values, what: str) -> None:
    """Refuse to write output that overflowed to inf or nan."""
    if not np.all(np.isfinite(values)):
        raise InvalidInputError(f"{what} overflowed to inf or nan; no output written")


def _write_output(path: str, chunks: list[bytes]) -> None:
    """Write the ASCII chunks to a file opened in binary mode, or to stdout as text for '-'."""
    if path == "-":
        sys.stdout.writelines(chunk.decode("ascii") for chunk in chunks)
    else:
        with open(path, "wb") as fh:
            fh.writelines(chunks)


def _gbm_params(args) -> GbmParams:
    return GbmParams(mu=args.mu, sigma=args.sigma, x0=args.x0)


def cmd_simulate(args) -> None:
    params = _gbm_params(args)
    t_end, n, seed, n_paths = args.t_end, args.n, args.seed, args.paths
    scheme = SchemeId.parse(args.scheme)  # an unknown --scheme fails before any path is drawn
    _check_size(n_paths * (n + 1), "--paths and --n")
    w = brownian.generate_path([brownian.mix_seed(seed, k) for k in range(n_paths)], t_end, n)
    approx = integrate(scheme, params, t_end, w)
    if n_paths == 1:
        header = "t,exact,approx"
        columns = np.concatenate((exact_solution(params, t_end, w), approx))
    else:
        header = "t," + ",".join(f"path_{k + 1}" for k in range(n_paths))
        columns = approx
    _require_finite(columns, "simulated trajectory")
    t = np.linspace(0.0, t_end, n + 1)
    _write_output(args.output, _csvtext.join(header, n + 1, len(columns) + 1, lambda rows:
                  _csvtext.fields(np.column_stack((t[rows], columns[:, rows].T)))))


def cmd_converge(args) -> None:
    schemes = args.schemes.split(",")  # convergence_study parses the names
    # a path block holds at most _BATCH_VALUES values or one path; each table
    # row keeps 3 norms per path
    _check_size(max(_csvtext._BATCH_VALUES, max(args.n_list) + 1)
                + 3 * args.paths * len(schemes) * len(args.n_list), "--n-list, --paths and --schemes")
    table = analysis.convergence_study(schemes, _gbm_params(args), args.n_list,
                                       args.paths, args.seed, t_end=args.t_end)
    _require_finite([(r.l1, r.l2, r.linf) for r in table.rows], "error norm")
    _write_output(args.output, table.to_csv())


def cmd_stability(args) -> None:
    _check_size(args.grid ** 2, "--grid")
    grid = stability.region_scan(args.scheme, args.sigma, args.mu_range, args.dt_range, args.grid)
    write = stability.region_to_csv if args.format == "csv" else stability.region_to_svg
    _write_output(args.output, write(grid))


def cmd_local_error(args) -> None:
    _check_size(2 * args.samples, "--samples")
    report = analysis.local_error_study(_gbm_params(args), args.dt_list, args.samples, args.seed)
    _require_finite(report.mean_sq, "local error")
    _write_output(args.output, report.to_csv())


class _Parser(argparse.ArgumentParser):
    """Reports every failure as one stderr line, `qpisde <sub>: error: ...`, and
    exits with its status. A flag is only its full name: `--path` is not `--paths`."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message, status=2):  # an argv word or a path may hold a newline
        self.exit(status, f"{self.prog}: error: {' '.join(message.splitlines())}\n")

    def parse_args(self, argv=None, namespace=None):
        args, unknown = self.parse_known_args(argv, namespace)
        if unknown:  # reported by the subcommand they follow
            args.fail(f"unrecognized arguments: {' '.join(unknown)}")
        return args


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
        p.set_defaults(func=func, fail=p.error)
        p.add_argument("--config", help="key=value config file (flags take precedence)")
        p.add_argument("--seed", type=_int_in(0, 1 << 64, "in [0, 2^64)"), default=85,
                       help="master seed (default %(default)s)")
        p.add_argument("--output", "-o", default="-", help="output file ('-' for stdout, the default)")
        p.add_argument("--sigma", type=float, default=0.5, help="volatility (default %(default)s)")
    for name in ("simulate", "converge", "local-error"):
        cmd[name].add_argument("--mu", type=float, default=-1.0, help="drift (default %(default)s)")
        cmd[name].add_argument("--x0", type=float, default=1.0, help="initial value (default %(default)s)")
    for name in ("simulate", "converge"):
        cmd[name].add_argument("--t-end", type=float, default=1.0, help="horizon T (default %(default)s)")

    p = cmd["simulate"]
    p.add_argument("--n", type=_int_in(1), default=256, help="number of steps (default %(default)s)")
    p.add_argument("--scheme", default="qpi", help="qpi|em|iem|milstein|milstein-paper (default %(default)s)")
    p.add_argument("--paths", type=_int_in(1), default=1, help="number of paths (default %(default)s)")

    p = cmd["converge"]
    p.add_argument("--n-list", type=_ints, default="4,16,64,256,1024",
                   help="comma list of step counts (default %(default)s)")
    p.add_argument("--schemes", default="qpi,iem,milstein",
                   help="comma list of schemes (default %(default)s)")
    p.add_argument("--paths", type=_int_in(1), default=500,
                   help="Monte Carlo paths (default %(default)s)")

    p = cmd["stability"]
    p.add_argument("--scheme", default="qpi-paper",
                   help="qpi-paper|qpi-exact|iem|milstein (default %(default)s)")
    p.add_argument("--mu-range", type=_range, default="-4:1", help="low:high (default %(default)s)")
    p.add_argument("--dt-range", type=_range, default="0.01:1", help="low:high (default %(default)s)")
    p.add_argument("--grid", type=_int_in(2), default=100, help="samples per axis (default %(default)s)")
    p.add_argument("--format", choices=("csv", "svg"), default="csv",
                   help="output format (default %(default)s)")

    p = cmd["local-error"]
    p.add_argument("--dt-list", type=_floats,
                   default="0.125,0.0625,0.03125,0.015625,0.0078125,0.00390625",
                   help="comma list of dt values, descending (default %(default)s)")
    p.add_argument("--samples", type=_int_in(1), default=100000,
                   help="samples per dt (default %(default)s)")
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
    unknown = sorted(set(config) - (set(vars(args)) - {"command", "func", "fail", "config"}))
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
        # overflow is reported once, by the commands' finite-output checks
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            args.func(args)
    except QpisdeError as exc:
        args.fail(str(exc))
    except (OSError, MemoryError) as exc:
        args.fail(str(exc) or type(exc).__name__, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
