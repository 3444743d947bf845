"""Benchmark of the supermod command line, run in-process from a checkout.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 36 --trace 0

Each workload is one Python process with one thread running a closed loop,
one client and no think time: a fixed batch of CLI invocations, each one a
call of supermod.cli.main(argv) with stdout captured, repeated until the next
batch would overrun --seconds.  Inputs are generated from --seed (see
workloads.py) and every output is checked against a known answer.  Times are
calibrated for the machine's speed (see speed.py); raw times are printed too.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 alternates untraced and traced batches and reports per-layer
metrics from layers.py; the difference of the two batch medians is the
tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give every metric by
name and unit, including the per-command latencies that are not gated.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import layers
import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES_PER_BATCH = 5
SETUP_SAMPLES_MIN = 15

# Timed in a fresh interpreter: import the CLI module and build every
# distinct lattice of the workload once.  Prints seconds.
SETUP_PROBE = """
import json, sys
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import supermod.cli
import supermod
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        supermod.build_lattice(supermod.poset_from_dict(json.load(fh)))
print(perf_counter() - t0)
"""

COMMANDS = ("rays", "dim", "is_extreme", "reproduce", "check", "moebius", "normalize",
            "vertices", "envelope", "face")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_cli():
    """The supermod CLI of this checkout; exits with status 2 when absent."""
    if not os.path.isfile(os.path.join(SRC, "supermod", "cli.py")):
        print(f"bench: no supermod package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import supermod
    import supermod.cli

    if os.path.dirname(os.path.abspath(supermod.__file__)) != os.path.join(SRC, "supermod"):
        print(f"bench: imported supermod from {supermod.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return supermod, supermod.cli


class Runner:
    """Runs batches of operations and keeps their latencies and failures."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.speed = speed.Speedometer()
        # Seconds per operation, one per batch: calibrated and raw.
        self.latencies = [[] for _ in ops]
        self.raw_latencies = [[] for _ in ops]
        self.attempted = 0
        self.failures = []

    def invoke(self, argv, out, err):
        """(exit code, traceback of a crash or None)."""
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return self.cli.main(argv), None
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code, None
        except Exception:  # a crash is a failed operation; keep measuring
            return None, traceback.format_exc(limit=3)

    def run_op(self, k, tracer=None):
        """Runs operation k once; returns its calibrated seconds."""
        op = self.ops[k]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_op()
        (rc, problem), raw, dt = self.speed.measure(lambda: self.invoke(op.argv, out, err))
        if tracer is not None:
            tracer.end_op(op.argv)
        self.attempted += 1
        self.latencies[k].append(dt)
        self.raw_latencies[k].append(raw)
        if problem is None:
            try:
                problem = op.check(rc, out.getvalue())
            except Exception as exc:  # unparsable output
                problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{' '.join(op.argv)}: {problem} {err.getvalue().strip()}")
        return dt

    def batch(self, tracer=None):
        """Runs every operation once; returns the sum of their calibrated seconds."""
        gc.collect()
        return sum(self.run_op(k, tracer) for k in range(len(self.ops)))

    def by_command(self, latencies):
        """{command: all its latencies} in COMMANDS order."""
        out = {}
        for op, xs in zip(self.ops, latencies):
            out.setdefault(op.cmd, []).extend(xs)
        return {cmd: out[cmd] for cmd in COMMANDS if cmd in out}


def probe_seconds(cmd):
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


class SetupProbe:
    """Fresh-interpreter set-up time, sampled between batches over the run.

    Each set-up probe is followed by a reference probe (speed.IMPORT_PROBE),
    and the set-up time is calibrated by the pair's ratio; see speed.py."""

    def __init__(self, posets):
        self.cmd = [sys.executable, "-I", "-c", SETUP_PROBE, SRC, *posets]
        self.ref_cmd = [sys.executable, "-I", "-c", speed.IMPORT_PROBE]
        self.raw_times = []
        self.ref_times = []
        self.sample(1)  # the first run compiles bytecode; not counted
        self.raw_times.clear()
        self.ref_times.clear()

    def sample(self, count):
        for _ in range(count):
            self.raw_times.append(probe_seconds(self.cmd))
            self.ref_times.append(probe_seconds(self.ref_cmd))

    def value(self):
        return statistics.median(
            raw * speed.IMPORT_REFERENCE_S / ref for raw, ref in zip(self.raw_times, self.ref_times))


def high_percentile(xs):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(xs)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    xs = sorted(xs)
    return p, xs[max(0, math.ceil(p / 100 * n) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def cmd_geomean_ms(runner, latencies):
    """Geometric mean over commands of the geometric mean over each command's
    operations of the operation's median latency.  It weighs every command
    alike and every operation of a command alike; a pooled median would pick
    one poset's calls."""
    log_ms = {}
    for op, xs in zip(runner.ops, latencies):
        log_ms.setdefault(op.cmd, []).append(math.log(statistics.median(xs) * 1000))
    return math.exp(statistics.fmean(statistics.fmean(v) for v in log_ms.values()))


def run_untraced(args, runner, wl):
    start = perf_counter()
    setup = SetupProbe(wl.posets)
    walls = []
    while True:
        t0 = perf_counter()
        walls.append(runner.batch())
        setup.sample(SETUP_SAMPLES_PER_BATCH)
        now = perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    if len(setup.raw_times) < SETUP_SAMPLES_MIN:
        setup.sample(SETUP_SAMPLES_MIN - len(setup.raw_times))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"batches {len(walls)}, calibrated s: " + " ".join(f"{w:.3f}" for w in walls))
    raw = runner.by_command(runner.raw_latencies)
    for cmd, xs in runner.by_command(runner.latencies).items():
        hp = high_percentile(xs)
        tail = f"p{hp[0]} {hp[1] * 1000:.3f} ms" if hp else "no percentile with 10 samples above"
        print(f"{cmd}_ms {statistics.median(xs) * 1000:.3f} ms (median; {tail}; n={len(xs)}; "
              f"raw median {statistics.median(raw[cmd]) * 1000:.3f} ms)")
    print(f"raw: cmd_geomean_ms {cmd_geomean_ms(runner, runner.raw_latencies):.6g} ms, "
          f"setup_s {statistics.median(setup.raw_times):.6g} s "
          f"(median of {len(setup.raw_times)} set-up probes)")
    return {
        "wall_s": statistics.median(walls),
        "cmd_geomean_ms": cmd_geomean_ms(runner, runner.latencies),
        "peak_rss_mib": rss_mib,
        "setup_s": setup.value(),
    }


def run_traced(args, runner, wl, package):
    tracer = layers.Tracer()
    plain, traced = [], []
    gaps = None
    start = perf_counter()
    while True:
        t0 = perf_counter()
        plain.append(runner.batch())
        tracer.install(package)
        try:
            if gaps is None:
                gaps = tracer.coverage_gaps()
            traced.append(runner.batch(tracer))
        finally:
            tracer.uninstall()
        now = perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{wl.name}.jsonl")
    tracer.write_spans(spans_path)
    per_layer = tracer.layer_metrics(len(traced))
    per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    share = tracer.dominant_share(wl.name)
    dominant = "+".join(layers.DOMINANT[wl.name])
    print(f"batches {len(plain)} untraced + {len(traced)} traced; "
          f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    print(f"self-check coverage: {'PASS' if not gaps else 'FAIL ' + ', '.join(gaps)}")
    missing = tracer.ops_without_library_span
    print(f"self-check every operation has a library span: "
          f"{'PASS' if not missing else 'FAIL ' + '; '.join(missing[:3])}")
    errors = list(tracer.hook_errors)
    print(f"self-check layer counters: {'PASS' if not errors else 'FAIL ' + '; '.join(errors[:3])}")
    print(f"self-check dominant layers {dominant} hold {share:.1%} of library self time: "
          f"{'PASS' if share > 0.5 else 'FAIL'}")
    return per_layer, not gaps and not missing and not errors


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_to_dd"):
        return "ratio"
    return "count"


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


def main(argv=None):
    args = parse_args(argv)
    package, cli = import_cli()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        print(f"workload {wl.name} seed {args.seed} trace {args.trace} "
              f"inputs_sha256 {wl.inputs_sha256} ops/batch {len(wl.ops)}")
        runner = Runner(cli, wl.ops)
        if args.trace:
            values, trace_ok = run_traced(args, runner, wl, package)
        else:
            values, trace_ok = run_untraced(args, runner, wl), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(runner.failures)
    for line in runner.failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"fail_ratio {failed / runner.attempted:.6g} ratio ({failed}/{runner.attempted})")
    for name, value in values.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in declared(kind)}
    print(json.dumps({
        "correct": failed == 0 and trace_ok,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
