"""Layered host-time benchmark of the inbl simulator.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0

Runs one workload (query-mix, phonebook, stats-scan or verify) in this
process, on one thread, as a closed loop with a single client: each op starts
when the previous one has returned. Inputs come only from --seed. Every op's
result is checked. All times are host time, never simulated time.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 the first half of the run is untraced, the second half is traced by
rebinding the package's public names (see tracer.py), and the last line
reports the per-layer metrics. The line before it is a JSON detail record:
environment, set-up samples, tail percentile, simulated totals and errors.

The package is imported from the `src/` directory beside `perfbench/`; the
run fails with exit code 2 when that source is not there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from tracer import Tracer, per_layer_metrics
from workloads import WORKLOADS, Outcome, Verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up is repeated this many times per run; the median is reported
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import inbl, inbl.cli, inbl.experiments; print(time.perf_counter() - t)"
)
TAIL_PERCENTILES = (99, 90, 75, 50)
MIN_BEYOND_TAIL = 10


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=_src_env(), cwd=str(ROOT),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "seed": seed,
    }


class Phase:
    """What one timed loop saw."""

    def __init__(self, pool_size: int):
        self.pool_size = pool_size
        self.latencies = []  # in pool order, pass after pass
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first_pass = None
        self.fragments = 0
        self.bounded_misses = 0
        self.lookups = 0
        self.waited = 0
        self.observed = 0
        self.scanned = 0

    def op_costs(self) -> list:
        """Each pool op's latency at the upper decile of its repeats.

        On a shared host a core slows to about 1/1.8 of its speed for
        stretches of seconds to minutes, in a share of the run that differs
        from run to run, so a plain mean or median over all ops mixes the two
        speeds in a varying share. The upper decile of each op's repeats
        falls in the slow mode in every run unless the host is quiet for nine
        tenths of it.
        """
        n = self.pool_size
        return [statistics.quantiles(self.latencies[i::n], n=10)[8] for i in range(n)]

    def ops_per_s(self) -> float:
        """Ops per host second, each op of the pool priced at its op_costs."""
        return self.pool_size / sum(self.op_costs())

    def clocks_per_s(self) -> float:
        """Simulated clocks per op, over the run, at the rate of ops_per_s."""
        clocks = self.waited + self.observed + self.scanned
        return clocks / self.attempted * self.ops_per_s()

    def fail(self, error: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(error)


def measure(workload, seconds: float, tracer=None, min_samples: int = 0) -> Phase:
    """Repeat whole passes over the workload's op pool until `seconds` of
    wall time have gone by and at least `min_samples` ops have run; only the
    op calls themselves are timed."""
    pool = workload.cycle()
    phase = Phase(len(pool))
    start = time.perf_counter()
    while True:
        records = []
        for op in pool:
            grounds = tracer.counts["switchboard.ground"] if tracer else 0
            exc = None
            t0 = time.perf_counter()
            try:
                out = workload.run(op)
            except Exception as e:  # an op that raises is a failed op
                out, exc = None, e
            dt = time.perf_counter() - t0
            if exc is not None and len(phase.errors) < 10:
                traceback.print_exception(exc, file=sys.stderr)
            try:
                outcome = workload.check(op, out, exc)
            except Exception as e:  # a result the check cannot read is wrong
                outcome = Outcome(ok=False, error=f"op {op}: unreadable result: {e!r}")
            phase.attempted += 1
            phase.latencies.append(dt)
            phase.waited += outcome.waited
            phase.observed += outcome.observed
            phase.scanned += outcome.scanned
            phase.fragments += outcome.fragment
            phase.bounded_misses += outcome.bounded_miss
            phase.lookups += outcome.lookup
            if not outcome.ok:
                phase.fail(outcome.error)
            elif tracer is not None and outcome.switch_ops is not None:
                observed = tracer.counts["switchboard.ground"] - grounds
                if observed != outcome.switch_ops:
                    phase.fail(f"op {op}: {observed} groundings observed, "
                               f"{outcome.switch_ops} switch_ops reported")
            records.append(outcome)
        phase.passes += 1
        # eval_array leaves its whole-window arrays in a reference cycle that
        # only the cyclic collector frees; collecting once per pass keeps the
        # peak to what one pass holds instead of growing with the run
        gc.collect()
        if phase.first_pass is None:
            phase.first_pass = records
        if (time.perf_counter() - start >= seconds and phase.passes >= 2
                and phase.attempted >= min_samples):
            return phase


def tail_latency(latencies) -> tuple:
    """The highest ladder percentile with >= 10 samples beyond it: (value, rung, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = max(1, -(-q * n // 100))  # nearest-rank percentile
        if n - rank >= MIN_BEYOND_TAIL:
            return ordered[rank - 1], q, n - rank
    return ordered[-1], 100, 0


def simulated_totals(records) -> dict:
    """Simulated facts of the first pass, which every run of a seed repeats."""
    verdicts = Counter(r.verdict for r in records if r.verdict)
    return {
        "ops": len(records),
        "clocks_waited": sum(r.waited for r in records),
        "clocks_observed": sum(r.observed for r in records),
        "clocks_scanned": sum(r.scanned for r in records),
        "switch_ops": sum(r.switch_ops or 0 for r in records),
        "verdicts": dict(sorted(verdicts.items())),
        "digest": hashlib.sha256(json.dumps([r.record for r in records]).encode()).hexdigest(),
    }


def code_digest() -> str:
    """Digest of the package and benchmark sources, so that totals are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("inbl/*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def compare_totals(key: str, totals: dict) -> str:
    """Compare with the totals an earlier run of the same seed and code left behind."""
    path = OUT / f"totals-{key}-{code_digest()}.json"
    try:
        if path.exists():
            earlier = json.loads(path.read_text(encoding="utf-8"))
            return "match" if earlier == totals else "DIFFERS"
        OUT.mkdir(exist_ok=True)
        path.write_text(json.dumps(totals, indent=1), encoding="utf-8")
    except (OSError, ValueError) as exc:
        return f"not compared: {exc}"
    return "first run"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "inbl" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'inbl'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inbl

    if Path(inbl.__file__).resolve().parent != SRC / "inbl":
        print(f"error: imported inbl from {inbl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import inbl.cli  # noqa: F401  (loaded before tracing so its names get rebound)
    import inbl.experiments  # noqa: F401

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        if cls is Verify:
            workload = cls(args.seed, args.scale, str(workdir))
        else:
            workload = cls(args.seed, args.scale)
        imports = [import_seconds() for _ in range(SETUP_REPEATS)]
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.build()
            builds.append(time.perf_counter() - t0)
        setup_s = statistics.median(imports) + statistics.median(builds)
        problems = workload.expect()

        tracer = None
        if args.trace:
            first = measure(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                timed = measure(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            phases = [first, timed]
        else:
            # enough samples that the tail percentile is always the same rung
            first = timed = measure(workload, args.seconds, min_samples=cls.min_samples)
            phases = [first]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) + len(problems)
    totals = simulated_totals(first.first_pass)
    repeat = compare_totals(f"{args.workload}-{args.scale}-seed{args.seed}", totals)
    tail, tail_q, beyond = tail_latency(timed.latencies)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "environment": environment(args.seed),
        "setup": {"import_s": imports, "build_s": builds},
        "latency": {"samples": len(timed.latencies), "tail_percentile": tail_q,
                    "beyond_tail": beyond},
        "passes": timed.passes,
        "totals": totals,
        "totals_repeat": repeat,
        "errors": problems + [e for p in phases for e in p.errors][:10],
    }
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (timed.ops_per_s(), "1/s"),
            "op_p50_ms": (statistics.median(timed.op_costs()) * 1e3, "ms"),
            "op_tail_ms": (tail * 1e3, "ms"),
            "sim_clocks_per_s": (timed.clocks_per_s(), "1/s"),
            "ok_ratio": (1 - failed / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = per_layer_metrics(
            tracer, timed.attempted, timed.lookups, timed.fragments,
            timed.bounded_misses, timed.waited, timed.observed,
            first.ops_per_s() / timed.ops_per_s(),
        )
        span_file = OUT / f"spans-{args.workload}-{args.scale}-seed{args.seed}.json"
        try:
            OUT.mkdir(exist_ok=True)
            tracer.write(str(span_file))
            detail["span_file"] = str(span_file.relative_to(ROOT))
        except OSError as exc:
            detail["span_file"] = f"not written: {exc}"
        detail["missing_boundaries"] = tracer.missing
        detail["spans_kept"] = len(tracer.spans)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and repeat != "DIFFERS",
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
