#!/usr/bin/env python3
"""Run alternating parent/change pairs of bench/run.py and write BENCH_<n>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --number 13 --first-seed 131 --traced-seed 141

PARENT and CHANGE are two checkouts of the repository.  The workloads and the
run length are those of the change's BENCHMARK.json.  For each workload, pair
k of 10 runs seed first_seed + k once in each checkout, the parent first in
even pairs and the change first in odd ones, with --trace 0.  One more pair
per workload runs at the traced seed with --trace 1.
Every run's last stdout line is kept, with the workload, seed, side and the
run's position within its pair (order 1 ran first).  The script then prints,
per workload and end-to-end metric, the median [q1, q3] of each side, the
ratio of the medians and the pairs the change won, plus the failed share of
operations.  Standard library only; it writes nothing inside the checkouts.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

COMMAND = "python3 bench/run.py --workload W --seed N --seconds S --trace T"
PAIRS = 10


def run_bench(checkout, workload, seed, seconds, trace):
    """The JSON result line of one bench run in `checkout`."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(checkouts, workloads, seeds, seconds, trace):
    runs = []
    for workload in workloads:
        for k, seed in enumerate(seeds):
            sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for order, side in enumerate(sides, start=1):
                result = run_bench(checkouts[side], workload, seed, seconds, trace)
                runs.append({"workload": workload, "seed": seed, "side": side, "order": order,
                             "seconds": seconds, "trace": trace, "result": result})
                print(f"{workload} seed {seed} {side}: failed {result['failed']} "
                      f"of {result['attempted']}", file=sys.stderr)
    return runs


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarize(runs, better=None):
    """Rows (workload, metric, unit, parent, change, ratio, wins, pairs) of the --trace 0 runs.

    parent and change are (median, q1, q3).  A pair is a (workload, seed) run
    on both sides; the change wins it when its value is better, that is lower
    unless `better` maps the metric to "higher".
    """
    pairs = {}
    for run in runs:
        if run["trace"] == 0:
            pairs.setdefault((run["workload"], run["seed"]), {})[run["side"]] = run["result"]
    rows = []
    for workload in dict.fromkeys(w for w, _ in pairs):
        both = [p for (w, _), p in pairs.items() if w == workload and len(p) == 2]
        for metric, entry in both[0]["parent"]["metrics"].items():
            values = {side: [p[side]["metrics"][metric]["value"] for p in both]
                      for side in ("parent", "change")}
            sign = -1.0 if (better or {}).get(metric) == "higher" else 1.0
            wins = sum(sign * c < sign * p for p, c in zip(values["parent"], values["change"]))
            parent, change = _quartiles(values["parent"]), _quartiles(values["change"])
            rows.append((workload, metric, entry["unit"], parent, change,
                         change[0] / parent[0], wins, len(both)))
    return rows


def failed_shares(runs):
    """{(workload, side): (failed, attempted)} summed over the --trace 0 runs."""
    shares = {}
    for run in runs:
        if run["trace"] == 0:
            key = run["workload"], run["side"]
            failed, attempted = shares.get(key, (0, 0))
            shares[key] = (failed + run["result"]["failed"],
                           attempted + run["result"]["attempted"])
    return shares


def format_table(rows):
    def cell(stats, unit):
        digits = 1 if unit == "MB" else 3
        return "{:.{d}f} [{:.{d}f}, {:.{d}f}]".format(*stats, d=digits)

    lines = ["| workload | metric | parent | change | change/parent | wins |",
             "| --- | --- | --- | --- | --- | --- |"]
    for workload, metric, unit, parent, change, ratio, wins, n in rows:
        lines.append(f"| {workload} | `{metric}` | {cell(parent, unit)} | {cell(change, unit)} "
                     f"| {ratio:.3f} | {wins}/{n} |")
    return "\n".join(lines)


def _commit(checkout):
    """HEAD of the git work tree `checkout`; exits with the reason when it has none."""
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs.py: {checkout} is not a git work tree with a commit "
                 "(git rev-parse HEAD failed); run the pairs on git clones")
    return proc.stdout.strip()


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--traced-seed", type=int, required=True,
                    help="seed of the one --trace 1 pair per workload")
    ap.add_argument("--what", default="bench/run.py result lines of alternating pairs")
    ap.add_argument("--out-dir", default=".", help="directory of BENCH_<n>.json")
    args = ap.parse_args()

    # read before the first run: a failure here would otherwise lose every result
    commits = {side: _commit(getattr(args, side)) for side in ("parent", "change")}
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    checkouts = {"parent": args.parent, "change": args.change}
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + PAIRS)
    runs = run_pairs(checkouts, workloads, seeds, spec["run_seconds"], 0)
    runs += run_pairs(checkouts, workloads, [args.traced_seed], spec["run_seconds"], 1)
    record = {
        "what": args.what,
        "command": COMMAND,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": _version("numpy"), "scipy": _version("scipy")},
        "runs": runs,
    }
    path = os.path.join(args.out_dir, f"BENCH_{args.number}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    print(format_table(summarize(runs, better)))
    for (workload, side), (failed, attempted) in failed_shares(runs).items():
        print(f"{workload} {side}: failed {failed}/{attempted}")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
