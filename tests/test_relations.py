"""Exact relations between runs on related inputs.

Each row of RELATIONS names a transform of an input and the transform it
must make of the output.  A map's output is its avoided-crossing fit: the
four parameters and the iteration count.  A config's output is the text
`levels` prints for it.  Reversing an axis, scaling |S21| or shifting an
axis changes nothing the fit can see but the shift, and every direction of
one cubic family meets the defect's bonds at the same set of angles.
"""

import functools
import itertools
import re
from pathlib import Path

import pytest

from spincavity import cavity_qed as cq
from spincavity import experiments as ex
from spincavity import fitting as ft
from spincavity import sweep_cli as cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = {"nv_config": "nv_10ppm_b110.ini", "p1_config": "p1_20ppm_b001.ini"}
MAPS = ("nv_map", "nv_map_noisy", "p1_map", "p1_map_noisy")


@functools.cache
def _input(key):
    """The map or the config text that `key` names."""
    if key in CONFIGS:
        return (ROOT / "configs" / CONFIGS[key]).read_text()
    smap = ex.nv_anticrossing_map() if key.startswith("nv") else ex.p1_anticrossing_map(1, 8.8)
    return ex.add_magnitude_noise(smap, 0.003, 5) if key.endswith("noisy") else smap


def _outcome(x, tmp_path, capsys):
    if isinstance(x, cq.SpectrumMap):
        result = ft.fit_avoided_crossing(x)
        # at rtol 1e-8 an iteration count matches only itself
        return {**result.params, "iterations": result.iterations}
    path = tmp_path / "cfg.ini"
    path.write_text(x)
    assert cli.main(["levels", "--config", str(path)]) == 0
    return capsys.readouterr().out


def _shifted(key, by):
    return lambda p: {**p, key: p[key] + by}


def _field_along(direction):
    spelling = " ".join(map(str, direction))
    return lambda text: re.sub(r"(?m)^field_direction = .*$", f"field_direction = {spelling}", text)


def _family(pattern):
    """The signed integer directions whose sorted magnitudes are `pattern`."""
    return [d for d in itertools.product((-1, 0, 1), repeat=3)
            if sorted(map(abs, d)) == sorted(pattern)]


def _same(out):
    return out


# (name, inputs, input transform, expected output transform, rtol)
RELATIONS = [
    ("fields_reversed", MAPS,
     lambda m: cq.SpectrumMap(m.b_axis[::-1], m.omega_axis, m.values[::-1]), _same, 1e-8),
    ("frequencies_reversed", MAPS,
     lambda m: cq.SpectrumMap(m.b_axis, m.omega_axis[::-1], m.values[:, ::-1]), _same, 1e-8),
    ("magnitude_times_1000", MAPS,
     lambda m: cq.SpectrumMap(m.b_axis, m.omega_axis, 1000.0 * m.values), _same, 1e-8),
    ("frequency_plus_100_mhz", MAPS,
     lambda m: cq.SpectrumMap(m.b_axis, m.omega_axis + 100.0, m.values),
     _shifted("omega_r", 100.0), 1e-8),
    ("field_plus_10_mt", MAPS,
     lambda m: cq.SpectrumMap(m.b_axis + 10.0, m.omega_axis, m.values),
     _shifted("b_star", 10.0), 1e-8),
    *((f"nv_levels_along_{'_'.join(map(str, d))}", ("nv_config",), _field_along(d), _same, 0.0)
      for d in _family((1, 1, 0))),
    *((f"p1_levels_along_{'_'.join(map(str, d))}", ("p1_config",), _field_along(d), _same, 0.0)
      for d in _family((0, 0, 1))),
]


@pytest.mark.parametrize("name, inputs, transform, expected, rtol", RELATIONS,
                         ids=[row[0] for row in RELATIONS])
def test_relation(tmp_path, capsys, name, inputs, transform, expected, rtol):
    for key in inputs:
        x = _input(key)
        got = _outcome(transform(x), tmp_path, capsys)
        want = expected(_outcome(x, tmp_path, capsys))
        assert got == (want if isinstance(want, str) else pytest.approx(want, rel=rtol, abs=0)), key
