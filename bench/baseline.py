#!/usr/bin/env python3
"""Reproduce the ROADMAP's baseline table, best of three.

Run from the root of the repository:

    python3 bench/baseline.py

Prints one markdown row per figure of the table: fresh-process CLI wall
times, the import time and its scipy parts, in-process `map` on the P1
config with the share spent outside map synthesis (CSV text), the NV
level_curve on the config's 57 fields with its builder calls, the NV
anticrossing map and its fit.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import subprocess  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, "src")

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spincavity import experiments, fitting, spin_models, sweep_cli  # noqa: E402

REPEATS = 3


def best(fn):
    out = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return min(out)


def fresh(args):
    return subprocess.run([sys.executable, *args], env=workloads.cli_env(),
                          capture_output=True, text=True, check=False)


def cumulative_import(err, module):
    """Cumulative seconds of one module in -X importtime output."""
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) * 1e-6
    return float("nan")


def main():
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    out = os.path.join(workloads.WORK_DIR, "baseline.csv")
    commands = [
        [c, "--config", workloads.CONFIGS[k], "--out", out]
        for k in ("nv", "p1") for c in ("levels", "transitions", "map")
    ] + [["fit", "--config", workloads.CONFIGS["nv"]],
         ["budget", "--config", workloads.CONFIGS["nv"]],
         ["circuit", "--config", workloads.CONFIGS["loop_gap"], "--out", out]]
    walls = [best(lambda c=c: fresh(["-m", "spincavity.sweep_cli", *c])) for c in commands]

    code = "import sys; sys.path.insert(0, 'src'); import spincavity"
    timed = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
             "import spincavity; print(time.perf_counter() - t)")
    t_import = min(float(fresh(["-c", timed]).stdout) for _ in range(REPEATS))
    t_bare = best(lambda: fresh(["-c", "pass"]))
    err = min((fresh(["-X", "importtime", "-c", code]).stderr for _ in range(REPEATS)),
              key=lambda e: cumulative_import(e, "spincavity"))
    t_opt = cumulative_import(err, "scipy.optimize")
    t_const = cumulative_import(err, "scipy.constants")

    p1 = workloads.CONFIGS["p1"]
    cfg = sweep_cli.parse_config(open(p1).read())
    t_map = best(lambda: workloads.run_cli_in_process(["map", "--config", p1, "--out", out]))
    t_synth = best(lambda: sweep_cli._synthesize_map(cfg, 0.0, 1))

    grid = np.linspace(73.0, 80.0, 57)
    b110 = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    t_curve = best(lambda: spin_models.level_curve("nv", b110, workloads.AXIS_111, grid))
    t_build = best(lambda: [spin_models.build_nv_hamiltonian(b * b110, workloads.AXIS_111)
                            for b in grid])
    t_nvmap = best(experiments.nv_anticrossing_map)
    smap = experiments.nv_anticrossing_map()
    t_fit = best(lambda: fitting.fit_avoided_crossing(smap))

    print("| what | time |")
    print("| --- | --- |")
    print(f"| any CLI command, wall, fresh process | {min(walls):.2f}–{max(walls):.2f} s |")
    print(f"| `import spincavity` | {t_import:.2f} s (scipy.optimize {t_opt:.2f} s, "
          f"scipy.constants {t_const:.2f} s, bare python {t_bare:.2f} s) |")
    print(f"| in-process `map` on `p1_20ppm_b001.ini` | {t_map:.2f} s, of which "
          f"{t_map - t_synth:.2f} s is CSV text |")
    print(f"| `level_curve` NV, 57 fields | {1e3 * t_curve:.0f} ms, of which "
          f"`build_nv_hamiltonian` x57 is {1e3 * t_build:.0f} ms |")
    print(f"| `nv_anticrossing_map` | {1e3 * t_nvmap:.0f} ms |")
    print(f"| `fit_avoided_crossing` (NV) | {1e3 * t_fit:.0f} ms |")


if __name__ == "__main__":
    main()
