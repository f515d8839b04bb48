"""Closed-loop benchmark of the aliasfree package.

Run every workload, untraced, from the repository root:

    python3 perfbench/run.py

or one workload, as the regression gate does:

    python3 perfbench/run.py --workload ddpm_8 --seed 3 --seconds 25 --trace 0

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced cycles and reports the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is 0 only when every output check passed. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
PINS = os.path.join(HERE, "digests.json")
WORKLOAD_NAMES = ("ddpm_8", "rotsample_32", "spectral_64", "raster_cli")
SETUP_REPEATS = 15
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
END_TO_END = [  # name, unit
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
]


def cap_threads():
    """Limit BLAS/OpenMP pools to at most nproc threads (default 1)."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, "1"))
        except ValueError:
            wanted = 1
        os.environ[var] = str(max(1, min(wanted, nproc)))


def use_source_tree():
    """Import aliasfree from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "aliasfree", "__init__.py")):
        raise RuntimeError(f"no aliasfree sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import aliasfree
    if not os.path.abspath(aliasfree.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"aliasfree imported from {aliasfree.__file__}, not {SRC}")


def platform_tag():
    """Numpy version plus the SIMD features its dispatch can use.

    Pinned digests hold only where floating-point kernels are the same.
    """
    import numpy as np
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {platform.machine(): True}
    enabled = sorted(k for k, v in features.items() if v)
    return f"numpy-{np.__version__}/" + ",".join(enabled)


def environment():
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None  # a checkout without .git has no commit to report
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            commit = handle.read().strip()
        if commit.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", commit[5:])) as handle:
                commit = handle.read().strip()
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform_tag": platform_tag(),
    }


# -- set-up time ---------------------------------------------------------------


def setup_child(workload, seed):
    """Body of a fresh interpreter timed by measure_setup."""
    import workloads
    workdir = os.path.join(WORK, f"setup-{workload}-{os.getpid()}")
    workloads.make(workload, seed, workdir)
    print(f"ready {time.monotonic()!r}", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload, seed):
    """Seconds from spawning an interpreter to its inputs being built."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-child",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("ready ")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(lines[-1].split()[1]) - t0


# -- the closed loop -------------------------------------------------------------


class Run:
    """The closed loop over one workload, and one record per operation it ran."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        with open(PINS) as handle:
            pins = json.load(handle)
        self.pin_seed = pins["seed"]
        # bitwise pins hold only where the floating-point kernels are the same
        self.pins = pins["digests"][workload.name] if pins["platform"] == platform_tag() else None
        self.records = []       # dicts: cycle, kind, key, t, bench, items, ok, traced
        self.cycles = []        # dicts: cycle, traced, wall, bench (seconds)
        self.outputs = {}       # key -> output bytes of its first run
        self.digests = {}       # key -> sha256 of its first run
        self.failures = []      # human-readable failure lines
        self.op_info = {}       # traced op id -> [cycle, key]

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for r in self.records if not r["ok"])

    def check(self, op, result, traced, pinned):
        """Raise CheckFailed unless the operation's output is right.

        A `pinned` operation must have a digest in digests.json.
        """
        import workloads
        if op.outputs:
            if result != 0:
                raise workloads.CheckFailed(f"exit code {result}")
            blobs = []
            for path in op.outputs:
                with open(path, "rb") as handle:
                    blobs.append(handle.read())
        else:
            blobs = [repr(result).encode("ascii")]
        if op.check is not None:
            op.check(blobs)
        d = workloads.digest(blobs)
        self.outputs.setdefault(op.key, blobs)
        if d != self.digests.setdefault(op.key, d):
            raise workloads.CheckFailed("output differs from an earlier run of the same input"
                                    + (" (traced)" if traced else ""))
        if self.pins is not None:
            expected = self.pins.get(op.key)
            if expected is None and pinned:
                raise workloads.CheckFailed("no pinned digest")
            if expected is not None and expected != d:
                raise workloads.CheckFailed("digest differs from the pinned one")

    def run_op(self, op, cycle, traced):
        import workloads
        t_in = time.perf_counter()
        for path in op.outputs:
            if os.path.exists(path):
                os.remove(path)
        if traced:
            op_id = len(self.records)
            self.tracer.current_op = op_id
            self.op_info[op_id] = [cycle, op.key]
        problem = None
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:
            elapsed = time.perf_counter() - t0
            problem = "raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        else:
            elapsed = time.perf_counter() - t0
            try:
                self.check(op, result, traced, pinned=cycle < 0)
            except (workloads.CheckFailed, OSError, ValueError) as exc:
                problem = f"check failed: {exc}"
        if problem is not None:
            self.failures.append(f"cycle {cycle} {op.key}: {problem}")
        record = {"cycle": cycle, "kind": op.kind, "key": op.key, "t": elapsed,
                  "items": op.items if problem is None else 0,
                  "ok": problem is None, "traced": traced}
        self.records.append(record)
        # the benchmark's own time around the call: clean-up, checks, bookkeeping
        record["bench"] = time.perf_counter() - t_in - elapsed

    def loop(self, seconds, min_cycles=2, max_cycles=None, warmup=True, between=None):
        """Run whole cycles until `seconds` of them have passed.

        The warm-up runs the pinned seed-0 inputs, whatever the workload
        seed, so every run compares outputs bitwise against digests.json.
        Odd cycles are traced when there is a tracer. `between(elapsed)`
        runs before each cycle; its own time does not count.
        """
        if warmup:
            for op in self.workload.pinned_ops(self.pin_seed):
                self.run_op(op, -1, False)
        clock = time.perf_counter
        start = clock()
        paused = 0.0
        cycle = 0
        while max_cycles is None or cycle < max_cycles:
            elapsed = clock() - start - paused
            if cycle >= min_cycles and elapsed >= seconds:
                break
            if between is not None:
                between(elapsed)
                paused = clock() - start - elapsed
            traced = self.tracer is not None and cycle % 2 == 1
            first = len(self.records)
            c0 = clock()
            if traced:
                self.tracer.install()
            try:
                ops = self.workload.cycle_ops(cycle)
                c1 = clock()
                for op in ops:
                    self.run_op(op, cycle, traced)
            finally:
                c2 = clock()
                if traced:
                    self.tracer.uninstall()
                c3 = clock()
            bench = (c1 - c0) + (c3 - c2) + sum(r["bench"] for r in self.records[first:])
            self.cycles.append({"cycle": cycle, "traced": traced, "wall": c3 - c0,
                                "bench": bench})
            cycle += 1
        for key in self.workload.final_failures(self.outputs):
            for r in self.records:
                if r["key"] == key and r["ok"]:
                    r["ok"] = False
                    r["items"] = 0
            self.failures.append(f"{key}: pooled property check failed")
        return self


def run_loop(workload, seconds, tracer=None, **kwargs):
    return Run(workload, tracer).loop(seconds, **kwargs)


# -- metrics ---------------------------------------------------------------------


def cycle_times(records):
    """Per timed cycle, the summed latency of its operations (inf if one failed)."""
    times = {}
    for r in records:
        if r["cycle"] < 0:
            continue
        t = r["t"] if r["ok"] else math.inf
        times[r["cycle"]] = times.get(r["cycle"], 0.0) + t
    return [times[c] for c in sorted(times)]


def tail(samples):
    """Value with ten samples beyond it, and its percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    idx = max(n - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / n


def end_to_end(workload, run, setup_samples):
    """(name, value, unit, sample count, note) rows: the gated metrics first.

    The gated throughput is the 10th percentile of per-cycle rates, the
    rate that nine cycles in ten reach, and the gated latency is the tail.
    On a shared host whose speed swings between two levels, these
    slow-side figures repeat from run to run where medians do not.
    """
    timed = [r for r in run.records if r["cycle"] >= 0]
    rows = []
    headline = None
    for name, (kinds, unit) in workload.rates.items():
        per_cycle = {}
        for r in timed:
            if kinds is None or r["kind"] in kinds:
                items, t = per_cycle.get(r["cycle"], (0, 0.0))
                per_cycle[r["cycle"]] = (items + r["items"], t + r["t"])
        rates = [i / t for i, t in per_cycle.values() if t > 0]
        rows.append((name, statistics.median(rates), "1/s", len(rates),
                     f"{unit} per second, median over cycles"))
        if name == workload.headline:
            p10 = statistics.quantiles(rates, n=10, method="inclusive")[0]
            headline = ("throughput_per_s", p10, "1/s", len(rates),
                        f"p10 of per-cycle {name}")
    if workload.latency_unit == "op":
        latency = [r["t"] if r["ok"] else math.inf for r in timed]
        what = "command"
    else:
        latency = cycle_times(timed)
        what = "cycle"
    p50 = statistics.median(latency) * 1e3
    tail_s, pct = tail(latency)
    rows.append(("op_p50_ms", p50, "ms", len(latency), f"median per {what}"))
    if workload.latency_unit == "op":
        rows.append(("command_p50_ms", p50, "ms", len(latency), "median per command"))
        rows.append(("command_tail_ms", tail_s * 1e3, "ms", len(latency),
                     f"p{pct:.1f} per command"))
    rows.append(("fail_ratio", run.failed / max(run.attempted, 1), "ratio", run.attempted,
                 "failed / attempted operations"))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gated = [
        ("setup_s", statistics.median(setup_samples), "s", len(setup_samples),
         "median, fresh interpreter to inputs built"),
        headline,
        ("op_tail_ms", tail_s * 1e3, "ms", len(latency), f"p{pct:.1f} per {what}"),
        ("peak_rss_mb", rss, "MiB", 1, "ru_maxrss of this process"),
    ]
    return gated + rows


def per_layer(run, tracer):
    """Per-layer rows, the accounting of traced wall time, and count exactness.

    The three parts of a traced cycle's wall time are timed separately:
    the layers' self times (from the spans), the benchmark's own time
    (set-up of the cycle, output clean-up and checks, bookkeeping) and the
    remainder, which holds only the wrappers' own cost for top-level spans
    and the call into the package. The remainder must stay within the
    tracing overhead, (trace.overhead - 1) x wall, taking the overhead at
    the top of its two-standard-error range: on a workload whose overhead
    is smaller than the run's noise, the median alone can fall below 1.
    """
    import tracing
    traced = [c for c in run.cycles if c["traced"]]
    walls = [c["wall"] for c in traced]
    untraced = {c["cycle"]: c["wall"] for c in run.cycles if not c["traced"]}
    # each traced cycle against the untraced cycles on either side of it,
    # so that a drift in the host's speed cancels
    ratios = []
    for c in traced:
        around = [untraced[n] for n in (c["cycle"] - 1, c["cycle"] + 1) if n in untraced]
        ratios.append(c["wall"] * len(around) / sum(around))
    op_cycle = {op_id: cycle for op_id, (cycle, _key) in run.op_info.items()}
    values, touched, exact, self_total = tracer.metrics(op_cycle, statistics.median(ratios))
    rows = []
    for name, unit, _better, _source, _stat in tracing.METRICS:
        value = values[name]
        if value is None:
            note = "absent: traced name missing"
        elif name not in touched:
            note = "not touched by this workload"
        elif name in exact and not exact[name]:
            note = "NOT EXACT: differs between cycles"
        else:
            note = ""
        rows.append((name, value, unit, len(traced), note))
    selfs = [self_total.get(c["cycle"], 0.0) for c in traced]
    benches = [c["bench"] for c in traced]
    wall = statistics.median(walls)
    overhead = values["trace.overhead"]
    # standard error of a median: 1.2533 sd / sqrt(n)
    two_se = (2.5066 * statistics.stdev(ratios) / math.sqrt(len(ratios))
              if len(ratios) > 1 else math.inf)
    accounting = {
        "wall_s": wall,
        "layers_self_s": statistics.median(selfs),
        "bench_s": statistics.median(benches),
        "unaccounted_s": statistics.median(w - s - b for w, s, b in zip(walls, selfs, benches)),
        "allowance_s": (overhead - 1.0 + two_se) * wall,
        "overhead": overhead,
        "overhead_2se": two_se,
    }
    accounting["within"] = abs(accounting["unaccounted_s"]) <= accounting["allowance_s"]
    return rows, accounting, exact


def fmt(value):
    if value is None:
        return "absent"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def bench(workload_name, seed, seconds, trace):
    import workloads
    import tracing
    env = environment()
    workdir = os.path.join(WORK, f"run-{workload_name}-{os.getpid()}")
    tracer = tracing.Tracer() if trace else None
    setup_samples = []

    def sample_setup(elapsed):
        # spread over the run: consecutive samples share the host's state
        if len(setup_samples) < SETUP_REPEATS * min(1.0, elapsed / seconds + 1e-9):
            setup_samples.append(measure_setup(workload_name, seed))

    try:
        workload = workloads.make(workload_name, seed, workdir)
        t0 = time.perf_counter()
        run = run_loop(workload, seconds, tracer=tracer,
                       between=None if trace else sample_setup)
        wall = time.perf_counter() - t0
        while not trace and len(setup_samples) < SETUP_REPEATS:
            setup_samples.append(measure_setup(workload_name, seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cycles = len({r["cycle"] for r in run.records if r["cycle"] >= 0})
    print(f"workload {workload_name}  seed {seed}  trace {trace}  cycles {cycles}  "
          f"operations {run.attempted}  wall {wall:.2f} s")
    print("env " + json.dumps(env, sort_keys=True))
    if run.pins is None:
        print("pinned digests not compared: they were recorded on another platform")
    extra = {}
    if trace:
        rows, accounting, exact = per_layer(run, tracer)
        reported = rows
        extra["accounting"] = accounting
        extra["missing_names"] = tracer.missing
        print(f"trace accounting per traced cycle: wall {accounting['wall_s']:.6f} s = "
              f"layer self {accounting['layers_self_s']:.6f} s + benchmark "
              f"{accounting['bench_s']:.6f} s + unaccounted {accounting['unaccounted_s']:.6f} s; "
              f"overhead {accounting['overhead']:.3f}x ± {accounting['overhead_2se']:.3f} (2 s.e.) "
              f"allows {accounting['allowance_s']:.6f} s: "
              + ("within" if accounting["within"] else "OUTSIDE"))
        if tracer.missing:
            print("traced names missing: " + ", ".join(tracer.missing))
    else:
        rows = end_to_end(workload, run, setup_samples)
        reported = rows[:len(END_TO_END)]
        extra["setup_samples_s"] = setup_samples
    if getattr(workload, "moments", None):
        mean_z, var_z, n = workload.moments
        print(f"pooled moments over {n} values: mean z {mean_z:.2f}, variance z {var_z:.2f} "
              f"(limit {workloads.Z_MAX})")
    print(f"{'metric':40s} {'value':>14s} {'unit':6s} {'n':>6s}  note")
    for name, value, unit, n, note in rows:
        print(f"{name:40s} {fmt(value):>14s} {unit:6s} {n if n is not None else '':>6}  {note}")
    for line in run.failures[:20]:
        print("FAILED " + line)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stem = os.path.join(WORK, "results", f"{workload_name}-trace{trace}-seed{seed}")
    if trace:  # spans are large: keep only the latest traced run's per workload
        tracer.write(os.path.join(WORK, "results", f"{workload_name}.spans.json.gz"),
                     run.op_info, t0)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value if value is None or math.isfinite(value) else None,
                           "unit": unit}
                    for name, value, unit, _n, _note in reported},
    }
    with open(stem + ".json", "w") as handle:
        json.dump({"env": env, "result": result, "table": rows, "failures": run.failures,
                   "digests": run.digests,
                   "records": [[r["cycle"], r["key"], r["t"], r["ok"], r["traced"]]
                               for r in run.records], **extra}, handle)
    return result


def run_all(seed, seconds, trace):
    """Run each workload in its own interpreter, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            print(f"{name}: no result")
        print()
        combined["correct"] &= bool(result["correct"]) and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cap_threads()
    try:
        use_source_tree()
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = bench(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
