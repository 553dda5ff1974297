#!/usr/bin/env python3
"""Time the README's cold-start commands in two checkouts, interleaved.

    python3 scripts/cold_cli.py PARENT CHANGE --runs 9

PARENT and CHANGE are two checkouts of the repository.  Each command of the
README's cold-start table runs as `python -m spincavity.sweep_cli` from a
fresh interpreter, with the checkout's `src` on the path and the checkout as
the working directory.  One untimed run per command and side fills the
bytecode caches first.  Then each round runs every command once in each
checkout, the parent first in even rounds and the change first in odd ones,
and the script prints each side's median wall time per command as a
markdown table.  Bytecode caches and `map --out` files go to a temporary
directory, so nothing is written inside either checkout.  Standard library
only.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

NV, P1 = "configs/nv_10ppm_b110.ini", "configs/p1_20ppm_b001.ini"
LOOP_GAP = "configs/loop_gap.ini"
# (command, config label, numpy loaded, argv); {out} is a file in the temporary directory
COMMANDS = [
    ("config dump", "NV", "no", ["config", "dump", "--config", NV]),
    ("budget", "NV", "no", ["budget", "--config", NV]),
    ("levels", "NV", "yes", ["levels", "--config", NV]),
    ("transitions", "NV", "yes", ["transitions", "--config", NV]),
    ("map --out", "P1", "yes", ["map", "--config", P1, "--out", "{out}"]),
    ("fit", "NV", "yes", ["fit", "--config", NV]),
    ("circuit", "loop gap", "yes", ["circuit", "--config", LOOP_GAP]),
]


def cold_run(checkout, argv, scratch):
    """Wall time in s of one fresh `python -m spincavity.sweep_cli argv` in checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               PYTHONPYCACHEPREFIX=os.path.join(scratch, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [a.format(out=os.path.join(scratch, "out.csv")) for a in argv]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "spincavity.sweep_cli", *argv], cwd=checkout,
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"cold_cli.py: {' '.join(argv)} in {checkout} exited {proc.returncode}: "
                 f"{proc.stderr.strip()[-300:]}")
    return wall


def time_commands(checkouts, runs, scratch):
    """{side: [wall times per command]} over `runs` alternating rounds."""
    walls = {side: [[] for _ in COMMANDS] for side in checkouts}
    for checkout in checkouts.values():
        for *_, argv in COMMANDS:
            cold_run(checkout, argv, scratch)
    for k in range(runs):
        sides = list(checkouts) if k % 2 == 0 else list(reversed(checkouts))
        for i, (*_, argv) in enumerate(COMMANDS):
            for side in sides:
                walls[side][i].append(cold_run(checkouts[side], argv, scratch))
    return walls


def format_table(walls):
    lines = ["| command | config | numpy | before | after |",
             "| --- | --- | --- | --- | --- |"]
    for i, (command, config, numpy, _) in enumerate(COMMANDS):
        before, after = (statistics.median(walls[side][i]) for side in ("parent", "change"))
        lines.append(f"| `{command}` | {config} | {numpy} | {before:.3f} s | {after:.3f} s |")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit (the 'before' column)")
    ap.add_argument("change", help="checkout of the change (the 'after' column)")
    ap.add_argument("--runs", type=int, default=9, help="timed rounds (default 9)")
    args = ap.parse_args()
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with tempfile.TemporaryDirectory(prefix="cold_cli-") as scratch:
        walls = time_commands(checkouts, args.runs, scratch)
    print(format_table(walls))
    print(f"median of {args.runs} per command, rounds alternating which side runs first; "
          f"python {sys.version.split()[0]}, {os.cpu_count()} cores")


if __name__ == "__main__":
    main()
