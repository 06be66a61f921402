"""A catalogue of known defects, each a one-snippet edit of `src/qpisde`, and a runner.

Each entry names a file under `src/qpisde/`, an exact snippet of it, the
snippet's replacement, and the test files expected to fail on the mutant. The
tests kill every entry without `tests/test_golden.py`, so the byte pins can be
re-pinned while the rest still shows each defect. `tests/test_mutants.py`
checks in tier-1 that each snippet occurs exactly once in its file, so an edit
of mutated code must update its entry.

    python tests/mutants.py [NAME ...]

applies each entry (or the named ones) to a temporary copy of the tree, runs
its test files there with `tests/test_golden.py` deselected, and prints
`killed` or `survived` per entry; it exits 1 if any survived.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/qpisde/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # under tests/


MUTANTS = (
    Mutant("milstein-sign-swapped", "schemes.py",
           "sign = 1.0 if scheme is SchemeId.MILSTEIN else -1.0",
           "sign = -1.0 if scheme is SchemeId.MILSTEIN else 1.0",
           ("test_schemes.py", "test_exact_moments.py", "test_acceptance.py")),
    Mutant("qpi-odd-nodes-without-alpha", "schemes.py",
           "np.multiply(alpha, values[..., 0:-1:2], out=values[..., 1::2])",
           "np.multiply(1.0, values[..., 0:-1:2], out=values[..., 1::2])",
           ("test_schemes.py", "test_exact_moments.py", "test_acceptance.py")),
    Mutant("l2-over-n-plus-1", "analysis.py",
           "np.sqrt(e.sum(axis=-1) / n)",
           "np.sqrt(e.sum(axis=-1) / (n + 1))",
           ("test_analysis.py", "test_exact_moments.py")),
    Mutant("uniform-offset-quarter", "brownian.py",
           "    u += 2.0**-54\n",
           "    u += 2.0**-55\n",
           ("test_brownian.py",)),
    Mutant("uniform-clamp-dropped", "brownian.py",
           "    np.minimum(u, 1.0 - 2.0**-53, out=u)\n",
           "",
           ("test_brownian.py",)),
    Mutant("stale-first-values-fed-to-ndtri", "brownian.py",
           "    rows[:, 0] = 0.0\n    z = _standard_normal",
           "    z = _standard_normal",
           ("test_brownian.py",)),
    Mutant("iem-divisor-1.001h", "schemes.py",
           '"implicit EM step": lambda h: 1.0 - h}',
           '"implicit EM step": lambda h: 1.0 - 1.001 * h}',
           ("test_schemes.py", "test_stability.py", "test_exact_stability.py", "test_cli.py")),
    Mutant("alpha-h-over-6", "schemes.py",
           "sigma * (h / 12.0)",
           "sigma * (h / 6.0)",
           ("test_schemes.py", "test_acceptance.py", "test_batch.py", "test_stability.py")),
    Mutant("drift-weight-h", "schemes.py",
           "np.multiply(4.0 * h / 3.0, alpha, out=dWa)",
           "np.multiply(h, alpha, out=dWa)",
           ("test_schemes.py", "test_exact_moments.py", "test_acceptance.py", "test_analysis.py",
            "test_batch.py", "test_stability.py")),
    Mutant("seed-words-init-and-seq-swapped", "brownian.py",
           "np.ascontiguousarray((words[1::2] << np.uint64(32) | words[0::2]).T)",
           "np.ascontiguousarray((words[1::2] << np.uint64(32) | words[0::2]).T[:, [2, 3, 0, 1]])",
           ("test_brownian.py",)),
    Mutant("seed-row-strided", "brownian.py",
           "np.ascontiguousarray((words[1::2] << np.uint64(32) | words[0::2]).T)",
           "(words[1::2] << np.uint64(32) | words[0::2]).T",
           ("test_brownian.py", "test_batch.py", "test_cli.py")),
    Mutant("fallback-format-16-digits", "_csvtext.py",
           '"%-24.17g,"',
           '"%-24.16g,"',
           ("test_csvtext.py", "test_stability.py", "test_cli.py")),
    Mutant("csv-no-cut-table", "_csvtext.py",
           "np.add(g, 10_000, out=g, where=cut)",
           "np.add(g, 0, out=g, where=cut)",
           ("test_csvtext.py", "test_stability.py", "test_cli.py")),
    Mutant("csv-point-always-kept", "_csvtext.py",
           'ord(".") * (1 - cut)',
           'ord(".")',
           ("test_csvtext.py", "test_stability.py", "test_cli.py")),
    Mutant("csv-word-1-unwritten", "_csvtext.py",
           "word[:, k] = words.take(g)",
           "word[:, k] = words.take(g) * (k > 1)",
           ("test_csvtext.py", "test_stability.py")),
    Mutant("csv-zero-group-chain", "_csvtext.py",
           "cut &= groups[k - 1] == 0",
           "cut = groups[k - 1] == 0",
           ("test_csvtext.py", "test_stability.py")),
    Mutant("half-sigma-sq-without-half", "model.py",
           "return 0.5 * np.float64(sigma)**2",
           "return np.float64(sigma)**2",
           ("test_model.py", "test_schemes.py", "test_exact_moments.py", "test_acceptance.py",
            "test_stability.py")),
    Mutant("growth-without-ito-term", "model.py",
           "x += t * (mu - _half_sigma_sq(sigma))",
           "x += t * mu",
           ("test_model.py", "test_exact_moments.py", "test_acceptance.py")),
    Mutant("local-error-exact-at-dt", "analysis.py",
           "_growth(mu, sigma, 2.0 * dt, a + b)",
           "_growth(mu, sigma, dt, a + b)",
           ("test_analysis.py", "test_exact_moments.py")),
    Mutant("block-rows-one-more", "model.py",
           "return max(1, _BATCH_VALUES // values_per_row)",
           "return max(1, _BATCH_VALUES // values_per_row) + 1",
           ("test_batch.py", "test_csvtext.py", "test_stability.py", "test_cli.py")),
    Mutant("invalid-input-not-a-qpisde-error", "model.py",
           "class InvalidInputError(QpisdeError, ValueError):",
           "class InvalidInputError(ValueError):",
           ("test_model.py", "test_cli.py")),
    Mutant("gbm-params-accept-negative-sigma", "model.py",
           "if self.sigma < 0:",
           "if self.sigma < -np.inf:",
           ("test_model.py", "test_stability.py", "test_cli.py")),
    Mutant("config-decoded-as-utf-8", "cli.py",
           'data.decode("utf-8-sig")',
           'data.decode("utf-8")',
           ("test_cli.py",)),
    Mutant("cli-loads-analysis-at-import", "cli.py",
           "\nfrom .model import",
           "\nfrom . import analysis\nfrom .model import",
           ("test_coldstart.py", "test_layering.py")),
    Mutant("paper-lhs-cross-term-signed", "stability.py",
           "np.abs(a3 * a2)",
           "(a3 * a2)",
           ("test_stability.py", "test_exact_stability.py", "test_acceptance.py")),
    Mutant("iem-amplification-half-noise", "stability.py",
           "1.0 + sigma * sigma * dt,",
           "1.0 + sigma * sigma * dt / 2,",
           ("test_stability.py", "test_exact_stability.py", "test_cli.py")),
    Mutant("milstein-scanned-at-block-pole", "stability.py",
           '"milstein": (milstein_amplification, None)',
           '"milstein": (milstein_amplification, "block system")',
           ("test_stability.py",)),
)


def apply(mutant: Mutant, root: pathlib.Path) -> None:
    """Write mutant into the tree at root: its snippet, which must occur exactly once, replaced."""
    path = root / "src" / "qpisde" / mutant.file
    text = path.read_text()
    if text.count(mutant.snippet) != 1:
        raise SystemExit(f"{mutant.name}: snippet occurs {text.count(mutant.snippet)} times in {mutant.file}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def killed(mutant: Mutant) -> bool:
    """Whether mutant's test files fail in a temporary copy of the tree with the mutant applied."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, copy / name)
        apply(mutant, copy)
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        rc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                             "--deselect", "tests/test_golden.py", *(f"tests/{t}" for t in mutant.tests)],
                            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    if rc not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited {rc}")
    return rc == 1


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    survived = 0
    for mutant in chosen:
        verdict = "killed" if killed(mutant) else "survived"
        survived += verdict == "survived"
        print(f"{verdict:8}  {mutant.name}  ({mutant.file}; {', '.join(mutant.tests)})", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
