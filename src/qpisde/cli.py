"""Command-line front end: reproducible experiments emitting CSV/SVG files.

Subcommands:
    simulate    exact vs. numerical trajectories on one or more paths
    converge    strong-convergence table over a refinement ladder
    stability   (mu, dt) stability-region scan at fixed sigma
    local-error mean-square one-block error vs. dt, with fitted slope

README's CLI section holds the rules: defaults and config splicing, negative
values, the checks and the work-size budget, output routes and exit codes.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import re
import sys

import numpy as np

from . import _csvtext, analysis, brownian, stability
from .model import GbmParams, InvalidInputError, QpisdeError, _block_rows, exact_solution
from .schemes import SchemeId, integrate

# the work-size budget: 2**26 float64 values (512 MiB) in a command's main arrays, for converge
# its study's workspace and buffers. With temporaries and the chunk of text being written, peak RSS
# grew 1.28x the count for stability, 1.1x for local-error (1.5x at 1M values), 1.1-1.5x for converge
# and 1.3x for simulate (2.3x at 1M values: ~10 MiB of chunk temporaries plus 1.0x the count)
MAX_VALUES = 1 << 26


def _load_config(path: str) -> dict:
    """Parse a line-based UTF-8 `key=value` config file; `#` starts a comment, a leading BOM is ignored."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:  # newline=None splits lines as a file opened in text mode does
        lines = io.StringIO(data.decode("utf-8-sig"), newline=None)
    except UnicodeDecodeError as exc:  # exc.object is the data after a BOM
        at = exc.start + len(data) - len(exc.object)
        raise InvalidInputError(f"{path}: not UTF-8 text: byte {at} is {data[at]:#04x}") from None
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
        if values < 1e308:
            count = f"{values:.3g}"
        else:  # an int beyond the float range (--n-list 1e308); decimal is imported only here
            from decimal import Decimal
            count = f"{Decimal(values):.3g}"
        raise InvalidInputError(f"{flags}: the run would hold {count} values at once, "
                                f"more than the limit of {MAX_VALUES}")


def _require_finite(values, what: str) -> None:
    """Refuse to write output that overflowed to inf or nan."""
    if not np.all(np.isfinite(values)):
        raise InvalidInputError(f"{what} overflowed to inf or nan; no output written")


def _write_output(path: str, chunks) -> None:
    """Write each ASCII chunk as it is built: to stdout as text for '-', to a regular file
    through a temp file beside it that replaces it once all are written, else directly."""
    if path == "-":
        sys.stdout.writelines(chunk.decode("ascii") for chunk in chunks)
        return
    target = os.path.realpath(path)  # through a symlink, the file it names is replaced
    # /dev/null, a FIFO, a tty, or a /dev/fd link to a pipe or an unlinked file
    if os.path.exists(path) and not (os.path.isfile(target) and os.path.samefile(path, target)):
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    tmp = f"{target}.{os.getpid()}~"  # a killed run leaves it; a later run of its pid reuses it
    try:
        fh = open(tmp, "wb")  # a new file gets the mode the umask gives it
    except OSError as exc:
        exc.filename = path  # the error names the -o path, not the temp file
        raise
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_simulate(args) -> None:
    params = GbmParams(args.mu, args.sigma, args.x0)
    t_end, n, seed, n_paths = args.t_end, args.n, args.seed, args.paths
    scheme = SchemeId.parse(args.scheme)  # an unknown --scheme fails before any path is drawn
    _check_size(n_paths * (n + 1), "--paths and --n")
    # one path: its exact, then its approximate trajectory; else one row per path
    columns = np.empty((n_paths + (n_paths == 1), n + 1))
    approx = columns[-n_paths:]
    block = min(_block_rows(n + 1), n_paths)
    work = np.empty((2, block, n + 1))  # a block's paths and the kernel's scratch
    for start in range(0, n_paths, block):
        ids = np.arange(start, min(start + block, n_paths))
        w = brownian.generate_path(brownian.mix_seed(seed, ids), t_end, n, out=work[0, :len(ids)])
        integrate(scheme, params, t_end, w, out=approx[start:start + block], scratch=work[1, :len(ids)])
    if n_paths == 1:
        header = "t,exact,approx"
        exact_solution(params, t_end, w, out=columns[:1])
    else:
        header = "t," + ",".join(f"path_{k + 1}" for k in range(n_paths))
    _require_finite(columns, "simulated trajectory")
    t = np.linspace(0.0, t_end, n + 1)
    _write_output(args.output, _csvtext.join(header, n + 1, len(columns) + 1, lambda rows: _csvtext.fields(
        np.column_stack((t[rows], columns[:, rows].T))).reshape(len(t[rows]), -1)))  # one line per node


def cmd_converge(args) -> None:
    schemes = args.schemes.split(",")  # convergence_study parses the names
    # every array the study allocates; the ladder is checked first, as a list that is no ladder has no buffers
    _check_size(sum(map(math.prod, analysis._workspace(args.n_list, args.paths, len(schemes))[2])),
                "--n-list, --paths and --schemes")
    table = analysis.convergence_study(schemes, GbmParams(args.mu, args.sigma, args.x0), args.n_list,
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
    report = analysis.local_error_study(GbmParams(args.mu, args.sigma, args.x0), args.dt_list,
                                        args.samples, args.seed)
    _require_finite(report.mean_sq, "local error")
    _write_output(args.output, report.to_csv())


class _Parser(argparse.ArgumentParser):
    """Reports every failure as one stderr line, `qpisde <sub>: error: ...`, and
    exits with its status. A flag is only its full name: `--path` is not `--paths`."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        # private argparse attribute, read by _parse_optional: -digit, -.digit, -inf, -nan start a value
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

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
    p.add_argument("--scheme", default="qpi", help="|".join(s.value for s in SchemeId) + " (default %(default)s)")
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
                   help="|".join(stability._CONDITIONS) + " (default %(default)s)")
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
    argv = sys.argv[1:] if argv is None else list(argv)
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
