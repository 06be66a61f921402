"""Spans at the qpisde layer boundaries, recorded from outside the package.

Each public function is wrapped where its caller looks it up: `cli` calls
`brownian.generate_path` through the module attribute but `integrate` and
`exact_solution` through its own globals, and `analysis` calls every layer
through its own globals. Every site that holds the same function gets the
same wrapper, and `restore()` puts the originals back.

A span is (name, start, end, parent) and is kept in memory in flat arrays;
`save()` writes them out once, when the benchmark ends. A span's self time
is its duration minus the durations of its child spans (calls nest and do
not overlap, so the children cover exactly that much of the parent).
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from functools import wraps

import numpy as np

# span name -> modules whose attribute of that function name is a lookup site
SITES = {
    "cli.main": ("qpisde.cli",),
    "cli.cmd_simulate": ("qpisde.cli",),
    "cli.cmd_converge": ("qpisde.cli",),
    "cli.cmd_stability": ("qpisde.cli",),
    "brownian.generate_path": ("qpisde.brownian", "qpisde.analysis"),
    "brownian.coarsen": ("qpisde.brownian", "qpisde.analysis"),
    "model.exact_solution": ("qpisde.model", "qpisde.cli", "qpisde.analysis"),
    "schemes.integrate": ("qpisde.schemes", "qpisde.cli", "qpisde.analysis"),
    "analysis.error_norms": ("qpisde.analysis",),
    "analysis.convergence_study": ("qpisde.analysis",),
    "stability.region_scan": ("qpisde.stability",),
    "stability.region_to_csv": ("qpisde.stability",),
    "stability.region_to_svg": ("qpisde.stability",),
}
NAMES = tuple(SITES)


class Tracer:
    """Records nested spans for the wrapped functions while installed."""

    def __init__(self):
        self.name_ids = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.op = -1
        self.cells = Counter()  # op -> (mu, dt) cells that region_scan evaluated
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name_id: int, fn):
        counts_cells = NAMES[name_id] == "stability.region_scan"
        clock = time.perf_counter
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            self.ops.append(self.op)
            self.starts.append(0.0)
            self.ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.starts[idx] = start
                self.ends[idx] = end
            if counts_cells:
                self.cells[self.op] += result.lhs.size
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for name_id, name in enumerate(NAMES):
            attr = name.rsplit(".", 1)[1]
            for module_name in SITES[name]:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                key = (name_id, id(original))
                if key not in wrappers:
                    wrappers[key] = self._wrap(name_id, original)
                setattr(module, attr, wrappers[key])
                self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self, op_factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per (op, name): self time scaled by the op's factor, and call count.

        Returns two arrays of shape (n_ops, len(NAMES)).
        """
        n_ops = len(op_factor)
        names = np.array(self.name_ids, dtype=np.intp)
        ops = np.array(self.ops, dtype=np.intp)
        parents = np.array(self.parents, dtype=np.intp)
        dur = np.array(self.ends) - np.array(self.starts)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = (dur - child) * op_factor[ops]
        key = ops * len(NAMES) + names
        size = n_ops * len(NAMES)
        self_tot = np.bincount(key, weights=self_s, minlength=size).reshape(n_ops, len(NAMES))
        calls = np.bincount(key, minlength=size).reshape(n_ops, len(NAMES))
        return self_tot, calls

    def save(self, path: str) -> None:
        """Write every span: name index, start/end (perf_counter s), parent, op."""
        np.savez(path, names=np.array(NAMES), name=np.array(self.name_ids),
                 start=np.array(self.starts), end=np.array(self.ends),
                 parent=np.array(self.parents), op=np.array(self.ops))
