#!/usr/bin/env python3
"""Regenerate tests/golden/, the CLI outputs on the shipped configs that the tests hold fixed.

    PYTHONPATH=src python3 scripts/golden.py

Each case of CASES runs through `sweep_cli.main` in process, writing its
output with --out.  `tests/golden/golden.json` records, per case, the
argv, the exit code, stdout and stderr, and the output file: small outputs
as the name of a gzipped copy, each `map` CSV as its SHA-256, size, line
count and every SAMPLE_STRIDE-th line, so that a mismatch names a line.  It
also records the numpy version and BLAS the files were made with, since the
`map` bytes depend on LAPACK's eigensolver to the 10th digit.

A change that means to change output reruns this script and names the
changed lines in CHANGES.md.  tests/test_golden.py replays the cases.
"""

import contextlib
import gzip
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from spincavity import sweep_cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SAMPLE_STRIDE = 97

_SPIN = {"nv": "nv_10ppm_b110.ini", "p1": "p1_20ppm_b001.ini"}
_SPIN_COMMANDS = {
    "levels": ["levels"], "transitions": ["transitions"], "map": ["map"],
    "map-noise": ["map", "--noise", "0.003"], "budget": ["budget"], "fit": ["fit"],
    "fit-noise": ["fit", "--noise", "0.003"], "config-dump": ["config", "dump"],
}
# (name, argv, config); {out} in an argv is the directory of the outputs
CASES = [
    *((f"{s}-{name}", argv, cfg) for s, cfg in _SPIN.items()
      for name, argv in _SPIN_COMMANDS.items()),
    ("loop_gap-circuit", ["circuit"], "loop_gap.ini"),
    ("loop_gap-fit-lorentzian", ["fit", "--kind", "lorentzian"], "loop_gap.ini"),
    ("loop_gap-fit-fano", ["fit", "--kind", "fano"], "loop_gap.ini"),
    ("loop_gap-config-dump", ["config", "dump"], "loop_gap.ini"),
    *((f"{s}-fit-in", ["fit", "--in", f"{{out}}/{s}-map"], cfg) for s, cfg in _SPIN.items()),
    ("loop_gap-fit-lorentzian-in", ["fit", "--kind", "lorentzian", "--in",
                                    "{out}/loop_gap-circuit"], "loop_gap.ini"),
]
# the large outputs, stored as a hash and a sample of lines
MAPS = {name for name, argv, _ in CASES if argv[0] == "map"}


def environment():
    """numpy's version and BLAS, and Python's version."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except TypeError:  # numpy before 1.26 prints its config only
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "python": platform.python_version()}


def run_cases(out_dir):
    """{name: (exit code, stdout, stderr, output bytes)} of every case, in order."""
    results = {}
    for name, argv, cfg in CASES:
        out = Path(out_dir) / name
        argv = [a.format(out=out_dir) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = sweep_cli.main([*argv, "--config", str(ROOT / "configs" / cfg),
                                   "--out", str(out)])
        data = out.read_bytes() if out.exists() else None
        results[name] = (code, stdout.getvalue(), stderr.getvalue(), data)
    return results


def sample(lines):
    """{line number: text} of every SAMPLE_STRIDE-th line and the last; line 1 first."""
    picked = [*range(0, len(lines), SAMPLE_STRIDE), len(lines) - 1] if lines else []
    return {str(k + 1): lines[k] for k in picked}


def map_record(data):
    lines = data.decode().splitlines()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            "lines": len(lines), "sample": sample(lines)}


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for old in GOLDEN.glob("*.gz"):
        old.unlink()
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        results = run_cases(tmp)
    for name, argv, cfg in CASES:
        code, stdout, stderr, data = results[name]
        case = {"name": name, "argv": argv, "config": cfg, "exit": code,
                "stdout": stdout, "stderr": stderr}
        if data is not None and name in MAPS:
            case["map"] = map_record(data)
        elif data is not None:
            case["file"] = f"{name}.txt.gz"
            (GOLDEN / case["file"]).write_bytes(gzip.compress(data, mtime=0))
        cases.append(case)
    record = {"environment": environment(), "sample_stride": SAMPLE_STRIDE, "cases": cases}
    with open(GOLDEN / "golden.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
