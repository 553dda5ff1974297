#!/usr/bin/env python3
"""Benchmark of spincavity, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload field_sweeps --seed 1 --seconds 15 --trace 0

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics of the workload (setup_s, pass_s, cold_cli_s, peak_rss_mb); with
--trace 1 it holds the per-layer metrics named in BENCHMARK.json.  Both also
report the operations attempted and failed.  See bench/README.md.

The run uses one process at a time and at most two threads: BLAS is held to
one thread here and in every interpreter the run starts, and the only
threaded command is `map --threads 2`.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

SETUP_PROBES = 5
IMPORT_PROBES = 3
REQUIRED = ("BENCHMARK.json", "src/spincavity/__init__.py", "configs/nv_10ppm_b110.ini",
            "configs/p1_20ppm_b001.ini", "configs/loop_gap.ini")


def fresh_python(args):
    """Run the interpreter on args from the checkout root, src on the path."""
    import workloads

    proc = subprocess.run([sys.executable, *args], env=workloads.cli_env(),
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} failed: {proc.stderr.strip()[-500:]}")
    return proc


def setup_seconds(workload, seed):
    probe = os.path.join("bench", "setup_probe.py")
    times = [float(fresh_python([probe, workload, str(seed)]).stdout.split()[-1])
             for _ in range(SETUP_PROBES)]
    return statistics.median(times)


def import_seconds():
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import spincavity; print(repr(time.perf_counter() - t))")
    return statistics.median(
        float(fresh_python(["-c", code]).stdout.split()[-1]) for _ in range(IMPORT_PROBES))


def scipy_import_seconds():
    """Time spent importing scipy modules, from -X importtime: the cumulative
    time of each scipy import not nested inside another scipy import."""
    runs = []
    for _ in range(IMPORT_PROBES):
        err = fresh_python(["-X", "importtime", "-c", "import spincavity"]).stderr
        entries = []
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            if not cumulative.strip().isdigit():
                continue  # the header line
            depth = len(name) - len(name.lstrip())
            entries.append((depth, name.strip(), int(cumulative)))
        total, stack = 0, []
        for depth, name, cumulative in reversed(entries):  # parents before children
            while stack and stack[-1][0] >= depth:
                stack.pop()
            is_scipy = name.split(".")[0] == "scipy"
            if is_scipy and not any(s for _, s in stack):
                total += cumulative
            stack.append((depth, is_scipy))
        runs.append(total * 1e-6)
    return statistics.median(runs)


class Tally:
    """Operations attempted and failed, with the first problem of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = {}

    def add(self, op, problems):
        self.attempted += 1
        if problems:
            self.failures.setdefault(op.name, []).append(problems[0])

    @property
    def failed(self):
        return sum(len(v) for v in self.failures.values())

    def correct(self):
        """No operation failed other than the known faults."""
        import workloads

        return all(name in workloads.KNOWN_FAULTS for name in self.failures)

    def report(self, label):
        import workloads

        for name, problems in sorted(self.failures.items()):
            known = " (known fault)" if name in workloads.KNOWN_FAULTS else ""
            sys.stderr.write(f"[{label}] FAILED {name} x{len(problems)}{known}: {problems[0]}\n")


def check(op, out):
    try:
        return op.check(out)
    except Exception as exc:  # a malformed output is a failed operation
        return [f"check raised {type(exc).__name__}: {exc}"]


def run_pass(ops, tally, tracer=None):
    """Run every operation once; returns the wall time spent in the program.

    Checks run outside the timed span (and untraced)."""
    busy = 0.0
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, raised = op.run(), None
        except Exception as exc:  # the program raised: a failed operation
            out, raised = None, [f"raised {type(exc).__name__}: {exc}"]
        busy += time.perf_counter() - t0
        if tracer is None:
            problems = raised or check(op, out)
        else:
            with tracer.paused():
                problems = raised or check(op, out)
            for attr, key in (("csv_out", "sweep_cli.csv_bytes_out"),
                              ("csv_in", "sweep_cli.csv_bytes_in")):
                path = getattr(op, attr)
                if path and os.path.exists(path):
                    tracer.counts[key] += os.path.getsize(path)
        tally.add(op, problems)
    return busy


def run_passes(ops, seconds, tally, tracer=None):
    """Whole passes until `seconds` have gone by (at least one)."""
    times, snaps = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        times.append(run_pass(ops, tally, tracer))
        if tracer is not None:
            snaps.append(tracer.snapshot())
    return times, snaps


def timed_run(name, seed, seconds):
    import workloads

    wl = workloads.WORKLOADS[name]
    setup_s = setup_seconds(name, seed)
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    ops = wl.operations(wl.build_inputs(seed))
    tally = Tally()
    cold_ops = wl.cold_operations(ops)
    cold = [[] for _ in cold_ops]
    times = []
    # the cold rounds are spread over the run, so that both the passes and
    # the fresh interpreters sample the machine over the same span
    for _ in range(wl.COLD_ROUNDS):
        times += run_passes(ops, seconds / wl.COLD_ROUNDS, tally)[0]
        for op, walls in zip(cold_ops, cold):
            t0 = time.perf_counter()
            res = workloads.run_cli_fresh(op.argv)
            walls.append(time.perf_counter() - t0)
            tally.add(op, check(op, res))
    tally.report(name)
    sys.stderr.write(f"[{name}] {len(times)} passes: "
                     + " ".join(f"{t:.4f}" for t in times) + " s\n")
    metrics = {
        "setup_s": setup_s,
        "pass_s": statistics.median(times),
        "cold_cli_s": sum(statistics.median(walls) for walls in cold),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, metrics


def traced_run(name, seed, seconds):
    """Trace every workload, so that each per-layer metric, which is named for
    the workload it is measured on, appears in every traced run; the counts
    of attempted and failed operations are those of the named workload."""
    import tracer as tracing
    import workloads

    values = {"import.spincavity_s": import_seconds(), "import.scipy_s": scipy_import_seconds()}
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    tracer = tracing.Tracer()
    named_tally = None
    with tracer.installed():
        for wl in workloads.WORKLOADS.values():
            tracer.reset()
            inp = wl.build_inputs(seed)
            setup = tracer.snapshot()
            with tracer.paused():
                ops = wl.operations(inp)
            tally = Tally()
            times, snaps = run_passes(ops, seconds / len(workloads.WORKLOADS), tally, tracer)
            tally.report(f"{wl.name} traced")
            sys.stderr.write(f"[{wl.name} traced] {len(times)} passes, median pass "
                             f"{statistics.median(times):.4f} s\n")
            if wl.name == name:
                named_tally = tally
            keys = set(setup) | set().union(*snaps)
            per_pass = {k: statistics.median(s.get(k, 0.0) for s in snaps) for k in keys}
            total = {k: setup.get(k, 0.0) + per_pass[k] for k in keys}
            values.update({f"{wl.name}.{k}": v for k, v in tracing.layer_metrics(total).items()})
    return named_tally, values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        sys.stderr.write("bench/run.py must run from the root of a spincavity checkout; "
                         f"missing {', '.join(missing)}\n")
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2
    sys.path.insert(0, "src")

    if args.trace:
        tally, values = traced_run(args.workload, args.seed, args.seconds)
        wanted = spec["per_layer"]
    else:
        tally, values = timed_run(args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in values]
    if absent:
        sys.stderr.write(f"metrics not measured: {', '.join(absent)}\n")
        return 1
    result = {
        "correct": tally.correct(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
