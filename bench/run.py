#!/usr/bin/env python3
"""Whole-pass benchmark of the hornkit command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N --seconds S --trace 0|1]   # every workload

Run from the root of a source checkout; hornkit is imported from `src/`.
One operation is one `hornkit` command, invoked in-process through
`hornkit.cli.main` with stdout and stderr captured.  A run repeats whole
passes over its workload's fixed operation list, in a fixed order, for
about S seconds.  With `--trace 0` it times every operation with tracing
off; with `--trace 1` it alternates untraced and traced passes and reports
per-layer self times and counts per pass.  Outputs of the first pass are
checked after the timed passes, by `checks.py`, which computes apart from
the program; every later pass must reproduce them byte for byte.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The line before it prints the same
figures for a reader.  Without `--workload`, each workload runs in its own
process, one after the other.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = SRC / "hornkit" / "fixtures"
RUNS = BENCH / "runs"

# Set-up is repeated and its median reported; the first repetition also
# compiles the sources to bytecode in a fresh checkout.
SETUP_REPEATS = 7
# A tail percentile needs at least this many operations in the run.
P90_MIN_OPS = 40

END_TO_END = {"ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in
       ("cli", "system", "polygon", "counting", "atomic", "series", "solver",
        "operators", "puiseux")},
    "cli.output_kib": "KiB",
    "series.grow.calls": "count",
    "series.grow.self_s": "s",
    "series.grow.points": "count",
    "series.grow.escaped": "count",
    "series.grow.coeff_bits_max": "bits",
    "series.harvest.calls": "count",
    "series.harvest.self_s": "s",
    "series.harvest.starts": "count",
    "series.harvest.finite": "count",
    "series.harvest.exceeds_window": "count",
    "series.harvest.resonant_collision": "count",
    "series.harvest.useful_ratio": "ratio",
    "series.table.self_s": "s",
    "series.branch_points.self_s": "s",
    "solver.persistent.calls": "count",
    "solver.persistent.self_s": "s",
    "solver.constructive.self_s": "s",
    "solver.independent.self_s": "s",
    "operators.verify.calls": "count",
    "operators.verify.self_s": "s",
    "operators.verify.terms": "count",
    "trace.overhead_s": "s",
}


def invoke(main, argv: list[str], out: io.StringIO, err: io.StringIO) -> tuple[float, int]:
    """Run one command with stdout and stderr captured into `out` and `err`;
    return its wall time and exit code."""
    for buf in (out, err):
        buf.seek(0)
        buf.truncate()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            main(argv, prog_name="hornkit")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # a traceback is the CLI's exit 1
            code = 1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return elapsed, code


def setup(workload: str, seed: int, input_dir: Path):
    """Import hornkit afresh, generate the inputs and write the input files;
    return the time taken, `hornkit.cli.main`, the operations and the digest."""
    for name in [n for n in sys.modules if n.split(".")[0] in ("hornkit", "click")]:
        del sys.modules[name]
    shutil.rmtree(input_dir, ignore_errors=True)
    start = time.perf_counter()
    cli = importlib.import_module("hornkit.cli")
    ops, digest = workloads.build(workload, seed, FIXTURES, input_dir)
    elapsed = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"hornkit imported from {cli.__file__}, not from {SRC}")
    return elapsed, cli.main, ops, digest


class Passes:
    """Runs whole passes over the operations; keeps the first pass's outputs
    on disk for the checks and compares every later pass with them."""

    def __init__(self, ops, output_dir: Path):
        self.ops = ops
        self.output_dir = output_dir
        self.reference: list[tuple[int, str]] = []  # (exit code, sha256 of stdout)
        self.errors: list[str] = []
        self.op_times: list[float] = []
        self.mismatches = 0
        self.output_bytes = 0
        # One buffer per stream for the whole run: click keeps a wrapper for
        # every stream it writes to, so a fresh buffer per operation would
        # hold every output in memory until the process ends.
        self.out, self.err = io.StringIO(), io.StringIO()

    def run(self, main) -> float:
        first = not self.reference
        total = 0.0
        for k, op in enumerate(self.ops):
            elapsed, code = invoke(main, op.argv, self.out, self.err)
            out = self.out.getvalue()
            total += elapsed
            self.op_times.append(elapsed)
            self.output_bytes += len(out.encode())
            key = (code, hashlib.sha256(out.encode()).hexdigest())
            if first:
                self.reference.append(key)
                self.errors.append(self.err.getvalue())
                (self.output_dir / f"{k}.json").write_text(out)
            elif key != self.reference[k]:
                self.mismatches += 1
        return total


def check_outputs(passes: Passes) -> list[str | None]:
    """Problem of each operation of the first pass, or None."""
    problems = []
    for k, op in enumerate(passes.ops):
        code = passes.reference[k][0]
        if code != 0:
            problems.append(f"exit {code}: {passes.errors[k].strip()[-300:]}")
            continue
        try:
            out = json.loads((passes.output_dir / f"{k}.json").read_text())
            problems.append(checks.CHECKS[op.argv[0]](out, op.rows, op.params, op.expect))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"malformed output: {exc!r}")
    return problems


def _per_pass(total, passes: int):
    value = total / passes
    return int(value) if value == int(value) else value


def layer_metrics(tracer, passes: Passes, traced: list[float], untraced: list[float]) -> dict:
    """Per-layer figures per traced pass.  A metric whose layer or function
    no longer exists is left out; one that exists but was not called is 0."""
    n = len(traced)
    values = {f"{key}.self_s": total / n for key, total in tracer.self_s.items()}
    values.update({key: _per_pass(total, n) for key, total in tracer.counts.items()})
    values.update(tracer.maxima)
    starts = values.get("series.harvest.starts", 0)
    values["series.harvest.useful_ratio"] = (
        values.get("series.harvest.finite", 0) / starts if starts else 0.0)
    all_passes = len(passes.op_times) // len(passes.ops)
    values["cli.output_kib"] = passes.output_bytes / all_passes / 1024
    values["trace.overhead_s"] = statistics.mean(traced) - statistics.mean(untraced)
    return {name: values.get(name, 0) for name in PER_LAYER
            if name.rsplit(".", 1)[0] in tracer.present | {"trace"}}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    run_dir = RUNS / workload
    output_dir = run_dir / "outputs"
    checks.run_controls(FIXTURES)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, main, ops, digest = setup(workload, seed, run_dir / "inputs")
        setup_times.append(elapsed)
    print(f"{workload}: seed {seed}, {len(ops)} operations per pass, inputs sha256 {digest}",
          flush=True)
    shutil.rmtree(output_dir, ignore_errors=True)
    output_dir.mkdir(parents=True)

    passes = Passes(ops, output_dir)
    pass_times: list[float] = []
    untraced: list[float] = []
    traced: list[float] = []
    tracer = None
    if trace:
        tracer = Tracer()
        while True:
            untraced.append(passes.run(main))
            traced_main = tracer.install()
            try:
                traced.append(passes.run(traced_main))
            finally:
                tracer.remove()
            spent = sum(untraced) + sum(traced)
            if spent + statistics.mean(untraced) + statistics.mean(traced) > seconds:
                break
    else:
        while True:
            pass_times.append(passes.run(main))
            if sum(pass_times) + statistics.mean(pass_times) > seconds:
                break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = check_outputs(passes)
    shutil.rmtree(output_dir)
    runs = len(passes.op_times) // len(ops)
    failed = runs * sum(p is not None for p in problems) + passes.mismatches
    correct = passes.mismatches == 0 and not any(
        p is not None and not p.startswith("exit ") for p in problems)
    for k, problem in enumerate(problems):
        if problem is not None:
            print(f"FAILED {' '.join(ops[k].argv)}: {problem}", file=sys.stderr)
    if passes.mismatches:
        print(f"FAILED {passes.mismatches} operations differ from the first pass", file=sys.stderr)

    times = passes.op_times
    if tracer is None:
        values = {
            "ops_per_s": len(times) / sum(times),
            "op_p50_s": statistics.median(times),
            "peak_rss_mib": peak_rss_mib,
            "setup_s": statistics.median(setup_times),
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
        extra = ""
        if len(times) >= P90_MIN_OPS:
            extra = f" op_p90_s={statistics.quantiles(times, n=10)[-1]:.4g} s"
    else:
        values = layer_metrics(tracer, passes, traced, untraced)
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
        extra = f" traced_passes={len(traced)}"
    print(f"{workload}: passes={runs} attempted={len(times)} failed={failed}{extra} "
          + " ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in metrics.items()))
    print(json.dumps({"correct": correct, "attempted": len(times), "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in a fresh process; the last line maps workload names
    to their results."""
    results = {}
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "hornkit" / "cli.py").is_file():
        print(f"error: no hornkit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
