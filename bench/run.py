"""qpisde benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload converge --seed 7 --seconds 25 --trace 0

Run it from the root of a source checkout: it imports qpisde from ./src,
drives `qpisde.cli.main(argv)` in-process, and writes outputs, spans and the
full result record under ./.bench_out/<workload>/. The last line of stdout
is the result, {"correct", "attempted", "failed", "metrics"}; the line
before it holds the details (provenance, sample counts, tail percentile).
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from hostspeed import NOMINAL_S, calibrate
from tracer import NAMES, Tracer
from workloads import REFERENCE_SEED, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
IMPORT_PROBES = 7  # fresh interpreters timed per run, besides the memory probe
MIN_OPS = 3  # timed operations per mode, however short --seconds is
PROBE_TIMEOUT_S = 60


class Run:
    """One benchmark run of one workload: operations attempted, failures, checks."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = os.path.join(OUT, workload.name)
        os.makedirs(self.dir, exist_ok=True)
        self.attempted = 0
        self.problems: list[str] = []  # one per failed attempt
        self.flags: list[str] = []  # run-level faults: inexact counts, missing metrics
        self.digests: dict[int, list[str]] = {}  # seed -> sha256 of each output
        self.out_bytes: dict[int, int] = {}

    def outputs(self, tag: str) -> list[str]:
        return [os.path.join(self.dir, tag + suffix) for suffix in self.workload.suffixes]

    def op(self, cli, seed: int, tag: str = "op") -> float | None:
        """Run one operation in-process; its wall time, or None if it failed."""
        paths = self.outputs(tag)
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
        argvs = self.workload.argvs(seed, paths)
        self.attempted += 1
        start = time.perf_counter()
        try:
            codes = [cli.main(argv) for argv in argvs]
        except (Exception, SystemExit):
            self.problems.append(f"seed {seed}: raised\n{traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - start
        if any(codes):
            self.problems.append(f"seed {seed}: exit codes {codes}")
            return None
        return elapsed if self.verify(seed, paths) else None

    def verify(self, seed: int, paths: list[str]) -> bool:
        """Check one operation's outputs; record a problem and return False if wrong.

        The first output for a seed gets the workload's invariants and, at
        the reference seed (any seed for seed-free output), the pinned digest.
        Later outputs for that seed must repeat it byte for byte.
        """
        try:
            blobs = []
            for path in paths:
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
        except OSError as exc:
            self.problems.append(f"seed {seed}: output unreadable: {exc}")
            return False
        digests = [hashlib.sha256(b).hexdigest() for b in blobs]
        if seed in self.digests:
            if digests != self.digests[seed]:
                self.problems.append(f"seed {seed}: output differs from this run's first output")
                return False
            return True
        problems = self.workload.check(blobs, seed)
        if (seed == REFERENCE_SEED or self.workload.seed_free) \
                and digests != list(self.workload.reference_sha256):
            problems.append("output bytes differ from the seed commit's")
        if problems:
            self.problems.append(f"seed {seed}: " + "; ".join(problems))
            return False
        self.digests[seed] = digests
        self.out_bytes[seed] = sum(len(b) for b in blobs)
        return True

    def loop(self, cli, seconds: float, tracer: Tracer | None = None):
        """Repeat the operation for `seconds`, alternating untraced and traced
        operations when a tracer is given, with a calibration block after each.

        Returns (raw wall time, normalisation factor) of each successful
        operation per mode ({False: [...], True: [...]}), and the factor of
        every traced operation.
        """
        modes = (False, True) if tracer else (False,)
        samples = {mode: [] for mode in modes}
        traced_factors = []
        cal_before = calibrate()
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_OPS or time.perf_counter() < deadline:
            rounds += 1
            for traced in modes:
                if traced:
                    tracer.op = len(traced_factors)
                    tracer.install()
                try:
                    raw = self.op(cli, self.seed)
                finally:
                    if traced:
                        tracer.restore()
                cal_after = calibrate()
                factor = NOMINAL_S / ((cal_before + cal_after) / 2)
                cal_before = cal_after
                if traced:
                    traced_factors.append(factor)
                if raw is not None:
                    samples[traced].append((raw, factor))
        return samples, np.array(traced_factors)

    def probe(self, argvs=()) -> dict | None:
        """Run bench/probe.py in a fresh interpreter; its result, or None on failure."""
        self.attempted += 1
        cmd = [sys.executable, os.path.join(BENCH, "probe.py"), SRC, json.dumps(list(argvs))]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.problems.append(f"probe timed out after {PROBE_TIMEOUT_S} s")
            return None
        if proc.returncode != 0:
            self.problems.append(f"probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        result = json.loads(proc.stdout.splitlines()[-1])
        if any(result.get("rc", [])):
            self.problems.append(f"probe: exit codes {result['rc']}")
            return None
        return result

    def check_counts(self, counts: dict) -> None:
        """Exact work counts must repeat from run to run of the same sources."""
        path = os.path.join(self.dir, f"counts-{source_sha256()[:16]}.json")
        try:
            with open(path) as fh:
                known = json.load(fh)
        except (OSError, ValueError):
            known = {}
        for key, value in counts.items():
            if known.setdefault(key, value) != value:
                self.flags.append(f"{key} = {value}, but an earlier run counted {known[key]}")
        with open(path, "w") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it."""
    xs = sorted(samples)
    if len(xs) < 11:
        return None
    k = len(xs) - 11
    return {"percentile": round(100.0 * (k + 1) / len(xs), 1), "value": xs[k]}


def end_to_end(run: Run, cli, seconds: float) -> tuple[dict, dict]:
    samples = run.loop(cli, seconds)[0][False]
    walls = [raw * factor for raw, factor in samples]
    raw_walls = [raw for raw, _ in samples]
    setup, memory = [], None
    for _ in range(IMPORT_PROBES):
        p = run.probe()
        if p is not None:
            setup.append(p["import_s"] * NOMINAL_S / p["cal_s"])
    paths = run.outputs("probe")
    p = run.probe(run.workload.argvs(run.seed, paths))
    if p is not None and run.verify(run.seed, paths):
        setup.append(p["import_s"] * NOMINAL_S / p["cal_s"])
        memory = p
    metrics = {
        "wall_s": statistics.median(walls) if walls else None,
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": memory["maxrss_kb"] / 1024.0 if memory else None,
    }
    detail = {
        "wall_s_samples": len(walls),
        "raw_wall_s": statistics.median(raw_walls) if raw_walls else None,
        "wall_s_tail": tail(walls),
        "wall_s_quartiles": statistics.quantiles(walls, n=4) if len(walls) > 1 else None,
        "setup_s_samples": len(setup),
        "cold_wall_s": memory["op_s"] * NOMINAL_S / memory["cal_s"] if memory else None,
        "samples": {"raw_s_and_factor": samples},
    }
    if run.seed in run.out_bytes:
        run.check_counts({f"cli.out_bytes at seed {run.seed}": run.out_bytes[run.seed]})
    return metrics, detail


def per_layer(run: Run, cli, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer()
    samples, factors = run.loop(cli, seconds, tracer)
    tracer.save(os.path.join(run.dir, "spans.npz"))
    self_s, calls = tracer.totals(factors)
    metrics = {}
    counts = {}
    for i, name in enumerate(NAMES):
        metrics[f"{name}.self_s"] = float(np.median(self_s[:, i]))
        counts[f"{name}.calls"] = [int(c) for c in calls[:, i]]
    counts["stability.region_scan.cells"] = [tracer.cells[op] for op in range(len(factors))]
    for key, per_op in counts.items():
        if len(set(per_op)) > 1:
            run.flags.append(f"{key} differs between operations of one run: {per_op}")
        metrics[key] = per_op[0]
    metrics["cli.out_bytes"] = run.out_bytes.get(run.seed)
    run.check_counts({key: metrics[key] for key in counts}
                     | {f"cli.out_bytes at seed {run.seed}": metrics["cli.out_bytes"]})
    untraced, traced = ([raw * factor for raw, factor in samples[mode]] for mode in (False, True))
    if untraced and traced:
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    detail = {
        "untraced_samples": len(untraced),
        "traced_samples": len(traced),
        "untraced_wall_s": statistics.median(untraced) if untraced else None,
        "self_s_sum": sum(metrics[f"{name}.self_s"] for name in NAMES),
        "spans": len(tracer.starts),
        "samples": {"untraced_raw_s_and_factor": samples[False],
                    "traced_raw_s_and_factor": samples[True]},
    }
    return metrics, detail


def source_sha256() -> str:
    """Digest of the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "qpisde")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    import scipy

    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        try:
            fields = [open(os.path.join(cache_dir, index, f)).read().strip()
                      for f in ("level", "type", "size")]
        except OSError:
            continue
        caches[f"L{fields[0]} {fields[1]}"] = fields[2]
    return {
        "commit": commit,
        "source_sha256": source_sha256(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "platform": platform.platform(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark one qpisde workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED,
                   help=f"workload seed, passed to the CLI as --seed (default {REFERENCE_SEED})")
    p.add_argument("--seconds", type=float, default=10.0, help="measuring time (default 10)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qpisde", "cli.py")):
        print(f"bench: no qpisde sources at {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, SRC)
    from qpisde import cli

    run = Run(WORKLOADS[args.workload], args.seed)
    # warm-up: lets lazy set-up finish, and pins the bytes at the reference seed
    run.op(cli, REFERENCE_SEED, tag="reference")
    measure = per_layer if args.trace else end_to_end
    metrics, detail = measure(run, cli, args.seconds)

    missing = [m["name"] for m in declared if metrics.get(m["name"]) is None]
    for name in missing:
        run.flags.append(f"metric {name} was not measured")
    result = {
        "correct": not run.problems and not run.flags,
        "attempted": run.attempted,
        "failed": len(run.problems),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] not in missing},
    }
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(args.seed), "samples": detail.pop("samples"),
        "detail": detail, "all_metrics": metrics, "problems": run.problems + run.flags, "result": result,
    }
    with open(os.path.join(run.dir, f"result-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in run.problems + run.flags:
        print(f"bench: FAILED: {problem}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("provenance", "detail")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
