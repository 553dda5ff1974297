"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of the spincavity modules with timing
wrappers for the length of a traced run and puts the originals back after.
The modules call each other through module attributes, so nested calls go
through the wrappers too.  One exception: `spin_models.level_curve` looks
its builders up in the private `_BUILDERS` table, so those entries are
wrapped as well, or Hamiltonians built inside sweeps would go uncounted.

Each span adds its wall time to its function; a module's self time is the
sum over its spans of the time not covered by nested spans, so it is the
time spent in that module's own code (and in numpy it calls directly).
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# module -> public functions wrapped
TRACED = {
    "spin_models": (
        "level_curve",
        "build_nv_hamiltonian",
        "build_p1_hamiltonian",
        "eigensystem",
        "transition_spectrum",
    ),
    "cavity_qed": ("crossing_field", "s21_map", "s21_spectrum"),
    "circuit_model": ("loop_gap_s21",),
    "fitting": ("fit_avoided_crossing", "fit_lorentzian", "fit_fano"),
    "experiments": (
        "resonator_mode",
        "nv_transition_frequency",
        "nv_crossing",
        "nv_anticrossing_map",
        "p1_transition_frequency",
        "p1_crossings",
        "p1_anticrossing_map",
        "coupling_budget",
        "loop_gap_elements",
        "cc_for_qext",
        "loop_gap_trace",
        "lorentzian_q_trace",
        "add_magnitude_noise",
    ),
    "sweep_cli": ("main", "parse_config"),
}


class Tracer:
    """Span times, call counts and work counters, kept in memory."""

    def __init__(self):
        self.stack = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = Counter()

    def snapshot(self):
        out = {f"{k}.calls": float(v) for k, v in self.calls.items()}
        out.update({f"{k}.s": v for k, v in self.seconds.items()})
        out.update({f"{m}.self_s": v for m, v in self.self_seconds.items()})
        out.update({k: float(v) for k, v in self.counts.items()})
        return out

    def _inside(self, key):
        return any(frame[0] == key for frame in self.stack)

    def _wrap(self, module, name, fn):
        key = f"{module}.{name}"

        def traced(*args, **kwargs):
            args, kwargs = self._before(key, args, kwargs)
            frame = [key, 0.0]
            nested_in_map = key == "cavity_qed.s21_spectrum" and self._inside("cavity_qed.s21_map")
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                self.calls[key] += 1
                self.seconds[key] += dt
                self.self_seconds[module] += dt - frame[1]
                if self.stack:
                    self.stack[-1][1] += dt
            self._after(key, args, kwargs, out, nested_in_map)
            return out

        traced.__wrapped__ = fn
        return traced

    def _before(self, key, args, kwargs):
        if key == "cavity_qed.crossing_field":
            curve = args[0]

            def counted(b):
                self.counts["cavity_qed.crossing_evals"] += 1
                return curve(b)

            args = (counted,) + tuple(args[1:])
        return args, kwargs

    def _after(self, key, args, kwargs, out, nested_in_map):
        if key == "spin_models.level_curve":
            b_range = kwargs["b_range"] if "b_range" in kwargs else args[3]
            self.counts["spin_models.fields_tracked"] += len(b_range)
        elif key == "cavity_qed.s21_map":
            self.counts["cavity_qed.s21_points"] += out.values.size
        elif key == "cavity_qed.s21_spectrum" and not nested_in_map:
            self.counts["cavity_qed.s21_points"] += out.size
        elif key.startswith("fitting.fit_"):
            self.counts["fitting.lm_iterations"] += out.iterations

    @contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        import spincavity
        from spincavity import spin_models

        saved = []
        for module, names in TRACED.items():
            mod = getattr(spincavity, module)
            for name in names:
                fn = getattr(mod, name)
                saved.append((mod, name, fn))
                setattr(mod, name, self._wrap(module, name, fn))
        builders = dict(spin_models._BUILDERS)
        spin_models._BUILDERS.update(
            {k: getattr(spin_models, fn.__name__) for k, fn in builders.items()}
        )
        try:
            yield self
        finally:
            spin_models._BUILDERS.update(builders)
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    @contextmanager
    def paused(self):
        """Run the block untraced (the benchmark's own checks)."""
        saved = self.calls, self.seconds, self.self_seconds, self.counts
        self.reset()
        try:
            yield
        finally:
            self.calls, self.seconds, self.self_seconds, self.counts = saved


# figures taken as recorded; the csv byte counts are added by the benchmark
# from the sizes of the files each CLI command writes and reads
DIRECT = (
    "spin_models.level_curve.calls",
    "spin_models.level_curve.s",
    "spin_models.fields_tracked",
    "spin_models.eigensystem.calls",
    "spin_models.eigensystem.s",
    "spin_models.transition_spectrum.calls",
    "spin_models.transition_spectrum.s",
    "cavity_qed.crossing_field.calls",
    "cavity_qed.crossing_field.s",
    "cavity_qed.crossing_evals",
    "cavity_qed.s21_map.calls",
    "cavity_qed.s21_map.s",
    "cavity_qed.s21_points",
    "cavity_qed.s21_spectrum.calls",
    "circuit_model.loop_gap_s21.calls",
    "circuit_model.loop_gap_s21.s",
    "fitting.fit_avoided_crossing.calls",
    "fitting.fit_avoided_crossing.s",
    "fitting.fit_lorentzian.s",
    "fitting.fit_fano.s",
    "fitting.lm_iterations",
    "experiments.self_s",
    "sweep_cli.main.calls",
    "sweep_cli.main.s",
    "sweep_cli.parse_config.s",
    "sweep_cli.csv_bytes_out",
    "sweep_cli.csv_bytes_in",
)


def layer_metrics(snap):
    """The per-layer figures named in BENCHMARK.json, from one snapshot."""
    out = {k: snap.get(k, 0.0) for k in DIRECT}
    builders = ("spin_models.build_nv_hamiltonian", "spin_models.build_p1_hamiltonian")
    out["spin_models.hamiltonians_built"] = sum(snap.get(f"{b}.calls", 0.0) for b in builders)
    out["spin_models.build.s"] = sum(snap.get(f"{b}.s", 0.0) for b in builders)
    # all of sweep_cli's traced time is spent under main (parse_config runs inside it)
    out["sweep_cli.main.self_s"] = snap.get("sweep_cli.self_s", 0.0)
    return out
