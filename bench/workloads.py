"""The three benchmark workloads: the CLI calls of one operation, and the
checks its output must pass.

One operation is one `qpisde` command (two for `stability`), each writing
one output file. `check` returns a list of problems, empty when the output
is correct; it never raises on malformed output.
"""

from __future__ import annotations

import math
import types
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtri

# The CLI's default --seed. Outputs for it are pinned byte for byte below.
REFERENCE_SEED = 85

# GBM parameters of every workload (the CLI defaults).
MU, SIGMA, X0, T_END = -1.0, 0.5, 1.0, 1.0

CONVERGE_PATHS = 1000
CONVERGE_N = (4, 16, 64, 256, 1024)
CONVERGE_SCHEMES = ("qpi", "iem", "milstein")
ENSEMBLE_PATHS = 500
ENSEMBLE_N = 1024
STABILITY_GRID = 300
STABILITY_MU = (-4.0, 1.0)
STABILITY_DT = (0.01, 1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]  # argv of each call, without --seed/--output
    suffixes: tuple[str, ...]  # output file suffix of each call
    check: Callable[[list[bytes], int], list[str]]
    # sha256 of each output at REFERENCE_SEED, as the seed commit writes it
    reference_sha256: tuple[str, ...]
    seed_free: bool = False  # output does not depend on --seed

    def argvs(self, seed: int, outputs: list[str]) -> list[list[str]]:
        return [[*cmd, "--seed", str(seed), "--output", out]
                for cmd, out in zip(self.commands, outputs)]


def _rows(text: bytes, header: str, n_cols: int) -> tuple[np.ndarray | None, list[str]]:
    """Parse a numeric CSV body into an (rows, n_cols) float array."""
    lines = text.decode("ascii", errors="replace").split("\n")
    if lines[0] != header:
        return None, [f"header is {lines[0][:80]!r}, expected {header[:80]!r}"]
    if lines[-1] != "":
        return None, ["output does not end with a newline"]
    body = lines[1:-1]
    try:
        values = np.array(",".join(body).split(","), dtype=float)
    except ValueError as exc:
        return None, [f"non-numeric field: {exc}"]
    if values.size != len(body) * n_cols:
        return None, [f"{values.size} fields in {len(body)} rows, expected {n_cols} per row"]
    return values.reshape(len(body), n_cols), []


def check_converge(outputs: list[bytes], seed: int) -> list[str]:
    lines = outputs[0].decode("ascii", errors="replace").split("\n")
    expected_keys = [(s, n) for s in CONVERGE_SCHEMES for n in CONVERGE_N]
    if lines[0] != "scheme,n,l1,l2,linf,n_paths" or lines[-1] != "":
        return ["bad header or missing final newline"]
    rows = [line.split(",") for line in lines[1:-1]]
    if [(r[0], r[1]) for r in rows if len(r) == 6] != [(s, str(n)) for s, n in expected_keys]:
        return [f"rows are not the {len(expected_keys)} (scheme, n) pairs of the ladder"]
    try:
        norms = np.array([[float(x) for x in r[2:5]] for r in rows])
    except ValueError as exc:
        return [f"non-numeric norm: {exc}"]
    problems = []
    if any(r[5] != str(CONVERGE_PATHS) for r in rows):
        problems.append(f"n_paths column is not {CONVERGE_PATHS}")
    if not np.all(np.isfinite(norms)) or not np.all(norms > 0):
        problems.append("a norm is non-finite or not positive")
        return problems
    # mean |e| <= rms e <= max |e| per path, hence for the means over paths
    slack = 1e-12 * norms
    if np.any(norms[:, 0] > norms[:, 1] + slack[:, 1]) or np.any(norms[:, 1] > norms[:, 2] + slack[:, 2]):
        problems.append("l1 <= l2 <= linf violated")
    per_scheme = norms.reshape(len(CONVERGE_SCHEMES), len(CONVERGE_N), 3)
    if np.any(np.diff(per_scheme, axis=1) >= 0):
        problems.append("an error does not decrease as n grows")
    return problems


def _mix_seed(master: int, index: int) -> int:
    """splitmix64 per-path seed, restated from the documented sampling method."""
    mask = (1 << 64) - 1
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _increments(seed: int, index: int, n: int) -> np.ndarray:
    """Wiener increments of path `index`: PCG64 53-bit uniforms -> ndtri."""
    rng = np.random.default_rng(_mix_seed(seed, index))
    u = (rng.integers(0, 1 << 53, size=n, dtype=np.uint64) + 0.5) / float(1 << 53)
    nodes = np.concatenate(([0.0], np.cumsum(ndtri(u) * math.sqrt(T_END / n))))
    return np.diff(nodes)


def check_ensemble(outputs: list[bytes], seed: int) -> list[str]:
    from qpisde.schemes import qpi_block_solve_oracle

    header = "t," + ",".join(f"path_{k + 1}" for k in range(ENSEMBLE_PATHS))
    table, problems = _rows(outputs[0], header, ENSEMBLE_PATHS + 1)
    if table is None:
        return problems
    if table.shape[0] != ENSEMBLE_N + 1:
        return [f"{table.shape[0]} rows, expected {ENSEMBLE_N + 1}"]
    if not np.all(np.isfinite(table)):
        problems.append("a value is non-finite")
    if not np.array_equal(table[:, 0], np.linspace(0.0, T_END, ENSEMBLE_N + 1)):
        problems.append("time column is not the uniform grid")
    if not np.all(table[0, 1:] == X0):
        problems.append("row 0 is not x0 on every path")
    params = types.SimpleNamespace(mu=MU, sigma=SIGMA)
    dt = T_END / ENSEMBLE_N
    for k in (0, ENSEMBLE_PATHS // 2, ENSEMBLE_PATHS - 1):
        dw = _increments(seed, k, ENSEMBLE_N)
        x = table[:, k + 1]
        for m in (0, ENSEMBLE_N // 4 - 1, ENSEMBLE_N // 2 - 1):
            c = qpi_block_solve_oracle(params, dt, dw[2 * m], dw[2 * m + 1])
            got = (x[2 * m + 1] / x[2 * m], x[2 * m + 2] / x[2 * m])
            if not np.allclose(got, (c.alpha, c.beta), rtol=1e-9, atol=0.0):
                problems.append(f"path_{k + 1} block {m} disagrees with the block-solve oracle")
    return problems


def check_stability(outputs: list[bytes], seed: int) -> list[str]:
    g = STABILITY_GRID
    table, problems = _rows(outputs[0], "mu,dt,lhs,stable", 4)
    if table is None:
        return problems
    if table.shape[0] != g * g:
        return [f"{table.shape[0]} rows, expected {g * g}"]
    mu, dt, lhs, stable = table.T
    if not np.array_equal(mu, np.repeat(np.linspace(*STABILITY_MU, g), g)):
        problems.append("mu column is not the grid axis, row-major")
    if not np.array_equal(dt, np.tile(np.linspace(*STABILITY_DT, g), g)):
        problems.append("dt column is not the grid axis, row-major")
    if not np.all(np.isfinite(lhs)):
        problems.append("a lhs value is non-finite on a rectangle with no singular point")
    if not np.array_equal(stable, (lhs < 1.0).astype(float)):
        problems.append("stable != (lhs < 1) on some row")
    if not 0 < stable.sum() < g * g:
        problems.append("the region is empty or the whole rectangle")
    try:
        svg = ET.fromstring(outputs[1])
    except ET.ParseError as exc:
        return problems + [f"SVG does not parse: {exc}"]
    ns = "{http://www.w3.org/2000/svg}"
    cells = [r for r in svg.iter(ns + "rect") if r.get("fill") == "#7fb3d5"]
    title = svg.find(ns + "title")
    if title is None or "qpi-exact" not in (title.text or ""):
        problems.append("SVG title does not name the qpi-exact condition")
    if not 0 < len(cells) < g * g:
        problems.append(f"SVG has {len(cells)} stable cells of {g * g}")
    return problems


_N_LIST = ",".join(map(str, CONVERGE_N))
_STABILITY = ("stability", "--mu-range", f"{STABILITY_MU[0]:g}:{STABILITY_MU[1]:g}",
              "--dt-range", f"{STABILITY_DT[0]:g}:{STABILITY_DT[1]:g}", "--grid", str(STABILITY_GRID))

WORKLOADS = {w.name: w for w in (
    Workload(
        name="converge",
        commands=(("converge", "--n-list", _N_LIST, "--schemes", ",".join(CONVERGE_SCHEMES),
                   "--paths", str(CONVERGE_PATHS)),),
        suffixes=(".csv",),
        check=check_converge,
        reference_sha256=("02df2fdfbdff36fa37df34a6f25ec4f9c5778198b78b9a85676ba63483e9f947",),
    ),
    Workload(
        name="ensemble",
        commands=(("simulate", "--scheme", "qpi", "--n", str(ENSEMBLE_N),
                   "--paths", str(ENSEMBLE_PATHS)),),
        suffixes=(".csv",),
        check=check_ensemble,
        reference_sha256=("38868f099d21fab5f0a2e8b7ca33aa4e1664e235f1ce6fa97d1263f2a772ff10",),
    ),
    Workload(
        name="stability",
        commands=((*_STABILITY, "--scheme", "qpi-paper", "--format", "csv"),
                  (*_STABILITY, "--scheme", "qpi-exact", "--format", "svg")),
        suffixes=(".csv", ".svg"),
        check=check_stability,
        reference_sha256=("7caab6a75d5c69026a16a7db3e9d9e4c0f4f7c992454fb872e0a9a9f60e60e1a",
                          "8e4545ad82fa8e67b9c91cbc2f3ce217202296fcfbdeae62daabcf9523f39aba"),
        seed_free=True,
    ),
)}
