"""The record contract: every record of the package is a `scalars.Record`.

Each record is listed below with its fields in order, a value for each, its
defaults, the field values its `__post_init__` rejects and whether it
compares by value or, holding arrays, by identity.  The tests hold every
record to construction by position and keyword, its defaults, TypeError on
a missing, unknown or repeated field, immutability, equality and hashing,
`replace` and `repr`.
"""

from dataclasses import dataclass, field

import numpy as np
import pytest

from spincavity import cavity_qed, fitting, scalars, spin_models, sweep_cli
from spincavity.scalars import Record


@dataclass
class Case:
    cls: type
    fields: dict  # every field, in declaration order, with a valid value
    defaults: dict = field(default_factory=dict)
    rejected: list = field(default_factory=list)  # field values __post_init__ rejects
    changed: dict = field(default_factory=dict)  # a valid value unequal to the one in fields
    by_value: bool = True


HF_NV = spin_models.HyperfineTensor(-2.7, -2.1)
HF_P1 = spin_models.HyperfineTensor(114.03, 81.33)
SWEEP = sweep_cli.SweepConfig()

CASES = [
    Case(scalars.ResonatorMode,
         {"omega_r": 5390.0, "kappa_int": 4.0, "kappa_ext1": 0.5, "kappa_ext2": 0.7},
         rejected=[{"kappa_int": -1.0}, {"kappa_ext2": -0.1},
                   {"kappa_int": 0.0, "kappa_ext1": 0.0, "kappa_ext2": 0.0}],
         changed={"kappa_ext2": 0.8}),
    Case(scalars.EnsembleSpec,
         {"density_ppm": 10.0, "volume": 4.95, "orientation_fraction": 0.5,
          "nuclear_fraction": 0.25, "filling_factor": 0.8},
         defaults={"orientation_fraction": 1.0, "nuclear_fraction": 1.0, "filling_factor": 1.0},
         rejected=[{"density_ppm": -1.0}, {"volume": -1.0}, {"orientation_fraction": 1.5},
                   {"nuclear_fraction": -0.1}, {"filling_factor": 2.0}],
         changed={"density_ppm": 20.0}),
    Case(scalars.CircuitElements,
         {"l": 0.25, "c": 3.465, "r_loss": 11010.0, "cc1": 9.0, "cc2": 11.0, "cx": 1.0,
          "z0": 75.0},
         defaults={"cc1": 10.0, "cc2": 10.0, "cx": 0.0, "z0": 50.0},
         rejected=[{"l": 0.0}, {"c": -1.0}, {"r_loss": 0.0}, {"z0": -50.0}, {"cc1": -1.0},
                   {"cc2": -1.0}, {"cx": -1.0}],
         changed={"cx": 0.0}),
    Case(spin_models.HyperfineTensor, {"a_perp": 114.03, "a_par": 81.33},
         changed={"a_par": 81.0}),
    Case(spin_models.NVParams,
         {"gamma_e": 28.1, "d_zfs": 2870.0, "quadrupole_p": -4.9, "hyperfine": HF_P1},
         defaults={"gamma_e": 28.0, "d_zfs": 2877.5, "quadrupole_p": -5.0, "hyperfine": HF_NV},
         changed={"hyperfine": HF_NV}),
    Case(spin_models.P1Params, {"gamma_e": 28.1, "hyperfine": HF_NV},
         defaults={"gamma_e": 28.0, "hyperfine": HF_P1}, changed={"gamma_e": 28.0}),
    Case(spin_models.EigenSystem, {"values": np.zeros(2), "vectors": np.eye(2)},
         by_value=False),
    Case(spin_models.LevelCurves,
         {"b_mt": np.arange(3.0), "energies": np.zeros((3, 2)), "vectors": np.zeros((3, 2, 2))},
         by_value=False),
    Case(cavity_qed.SpinLine, {"omega_s": 5390.0, "gamma": 2.5, "g_ens": 11.5},
         rejected=[{"gamma": 0.0}, {"gamma": -1.0}, {"g_ens": -1.0}], changed={"g_ens": 0.0}),
    Case(cavity_qed.SpectrumMap,
         {"b_axis": np.arange(3.0), "omega_axis": np.arange(4.0), "values": np.ones((3, 4))},
         rejected=[{"b_axis": np.array([0.0, 2.0, 1.0])}, {"omega_axis": np.zeros(4)},
                   {"values": np.ones((4, 3))}, {"values": np.full((3, 4), np.nan)},
                   {"b_axis": np.array([0.0, 1.0, np.inf])}],
         by_value=False),
    Case(fitting.Spectrum1D, {"omega": np.arange(4.0), "magnitude": np.ones(4)},
         rejected=[{"magnitude": np.ones(3)}, {"magnitude": -np.ones(4)},
                   {"omega": np.array([0.0, 1.0, np.nan, 3.0])}, {"omega": np.zeros((2, 2))}],
         by_value=False),
    Case(fitting.FitResult, {"params": {"g_ens": 11.5}, "residual_rms": 0.01,
                             "converged": True, "iterations": 7},
         changed={"converged": False}),
    Case(sweep_cli.SampleConfig,
         {"defect": "P1", "density_ppm": 20.0, "volume_mm3": 1.0, "field_direction": (0, 0, 1),
          "linewidth_mhz": 2.5, "orientation_fraction": 1.0, "nuclear_fraction": 1 / 3,
          "filling_factor": 0.5, "transition_weight": 0.25, "g_ens_mhz": 8.8,
          "initial_levels": (0, 1)},
         defaults={"volume_mm3": scalars.SAMPLE1_VOLUME_MM3, "field_direction": (1, 1, 0),
                   "linewidth_mhz": 5.0, "orientation_fraction": 0.5, "nuclear_fraction": 1.0,
                   "filling_factor": 1.0, "transition_weight": 0.5, "g_ens_mhz": None,
                   "initial_levels": (0,)},
         changed={"initial_levels": (0,)}),
    Case(sweep_cli.ResonatorConfig,
         {"omega_r_mhz": 5390.0, "q_int": 1000.0, "q_ext1": 5000.0, "q_ext2": 6000.0,
          "mode_volume_mm3": 10.0, "l_nh": 0.25, "c_pf": 3.465, "r_ohm": 11010.0,
          "cc1_ff": 10.0, "cc2_ff": 10.0, "cx_ff": 0.0, "z0_ohm": 50.0,
          "circuit": scalars.CircuitElements(0.25, 3.465, 11010.0)},
         defaults={"omega_r_mhz": None, "q_int": 1300.0, "q_ext1": 7000.0, "q_ext2": 7000.0,
                   "mode_volume_mm3": 11.45, "l_nh": None, "c_pf": None, "r_ohm": None,
                   "cc1_ff": None, "cc2_ff": None, "cx_ff": None, "z0_ohm": None,
                   "circuit": None},
         changed={"circuit": None}),
    Case(sweep_cli.SweepConfig,
         {"b_min_mt": 70.0, "b_max_mt": 80.0, "b_points": 11, "omega_min_mhz": 5300.0,
          "omega_max_mhz": 5500.0, "omega_points": 21, "seed": 3},
         defaults={"b_min_mt": 60.0, "b_max_mt": 90.0, "b_points": 61, "omega_min_mhz": 5340.0,
                   "omega_max_mhz": 5440.0, "omega_points": 401, "seed": 0},
         changed={"seed": 4}),
    Case(sweep_cli.ExperimentConfig,
         {"sample": sweep_cli.SampleConfig("NV", 10.0), "resonator": None, "sweep": SWEEP},
         changed={"sample": None}),
]
IDS = [case.cls.__name__ for case in CASES]


def values(record):
    return tuple(getattr(record, name) for name in record._fields)


def same(a, b):
    """Field tuples equal, arrays compared by value."""
    return len(a) == len(b) and all(np.array_equal(x, y) if isinstance(x, np.ndarray)
                                    else x == y for x, y in zip(a, b))


def test_every_record_of_the_package_is_listed():
    modules = [scalars, spin_models, cavity_qed, fitting, sweep_cli]
    found = {cls for m in modules for cls in vars(m).values()
             if isinstance(cls, type) and issubclass(cls, Record) and "_fields" in vars(cls)
             and cls._fields}
    assert found == {case.cls for case in CASES}
    assert len(found) == 16


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_fields_by_position_and_keyword(case):
    assert case.cls._fields == tuple(case.fields)
    by_position = case.cls(*case.fields.values())
    by_keyword = case.cls(**case.fields)
    mixed = case.cls(*list(case.fields.values())[:1], **dict(list(case.fields.items())[1:]))
    for record in (by_position, by_keyword, mixed):
        assert same(values(record), tuple(case.fields.values()))
        assert vars(record).keys() == case.fields.keys()


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_defaults(case):
    required = {k: v for k, v in case.fields.items() if k not in case.defaults}
    record = case.cls(**required)
    assert {k: getattr(record, k) for k in case.defaults} == case.defaults
    assert {k: getattr(case.cls, k) for k in case.defaults} == case.defaults
    for name in required:
        assert name not in vars(case.cls)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_missing_unknown_or_repeated_field_is_a_type_error(case):
    for name in case.fields:
        if name not in case.defaults:
            with pytest.raises(TypeError, match="missing"):
                case.cls(**{k: v for k, v in case.fields.items() if k != name})
    with pytest.raises(TypeError, match="each once"):
        case.cls(**case.fields, unknown=1.0)
    first, value = next(iter(case.fields.items()))
    with pytest.raises(TypeError, match="each once"):
        case.cls(value, **case.fields)
    with pytest.raises(TypeError, match="each once"):
        case.cls(*case.fields.values(), value)
    with pytest.raises(TypeError):
        case.cls(**case.fields).replace(unknown=1.0)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_post_init_rejections_also_in_replace(case):
    record = case.cls(**case.fields)
    for bad in case.rejected:
        with pytest.raises(ValueError):
            case.cls(**{**case.fields, **bad})
        with pytest.raises(ValueError):
            record.replace(**bad)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_records_are_immutable(case):
    record = case.cls(**case.fields)
    name = next(iter(case.fields))
    for attr in (name, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert same(values(record), tuple(case.fields.values()))


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_equality_and_hash(case):
    a, b = case.cls(**case.fields), case.cls(**case.fields)
    assert a == a and not a != a
    assert a.__eq__(object()) is NotImplemented
    if not case.by_value:
        assert a != b
        assert hash(a) == object.__hash__(a)
        return
    assert a == b and not a != b
    other = a.replace(**case.changed)
    assert other != a and not other == a
    if case.cls is fitting.FitResult:  # a dict field: unhashable, as a tuple holding it
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values(a))
        assert len({a, b, other}) == 2


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_replace_changes_only_the_given_fields(case):
    record = case.cls(**case.fields)
    name, value = next(iter(case.fields.items()))
    copy = record.replace()
    assert copy is not record and same(values(copy), values(record))
    changed = record.replace(**case.changed)
    assert same(values(changed), tuple({**case.fields, **case.changed}.values()))
    assert same(values(record), tuple(case.fields.values()))


def test_repr_names_the_fields_in_order():
    assert repr(spin_models.HyperfineTensor(1.5, -2.0)) == (
        "HyperfineTensor(a_perp=1.5, a_par=-2.0)")
    assert repr(sweep_cli.ExperimentConfig(None, None, sweep_cli.SweepConfig(seed=2))) == (
        "ExperimentConfig(sample=None, resonator=None, sweep=SweepConfig(b_min_mt=60.0, "
        "b_max_mt=90.0, b_points=61, omega_min_mhz=5340.0, omega_max_mhz=5440.0, "
        "omega_points=401, seed=2))")


def test_records_define_no_methods_of_their_own():
    # every record method is Record's; the identity records only point
    # __eq__ and __hash__ at object's
    generated = {"__init__", "__repr__", "__setattr__", "__delattr__", "replace"}
    for case in CASES:
        own = set(vars(case.cls))
        assert not own & generated, case.cls
        if case.by_value:
            assert not own & {"__eq__", "__hash__"}
        else:
            assert (case.cls.__eq__, case.cls.__hash__) == (object.__eq__, object.__hash__)


def test_section_schema_holds_parsers_and_bounds_not_defaults():
    schema = sweep_cli.SampleConfig._schema
    assert list(schema) == list(sweep_cli.SampleConfig._fields)
    assert schema["density_ppm"] == {"parse": float, "lo": 0.0, "hi": None}
    assert schema["defect"] == {"parse": str.upper, "lo": None, "hi": None}
    assert "circuit" not in sweep_cli.ResonatorConfig._schema
    assert list(sweep_cli.ResonatorConfig._schema) == list(sweep_cli.ResonatorConfig._fields[:-1])


@pytest.mark.parametrize("build, params", [
    (spin_models.build_nv_hamiltonian, spin_models.NVParams),
    (spin_models.build_p1_hamiltonian, spin_models.P1Params),
])
def test_frame_terms_cache_hits_for_equal_params(build, params):
    cache = spin_models._frame_terms
    axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    build(np.array([0.0, 0.0, 80.0]), axis, params())
    hits, misses = cache.cache_info()[:2]
    h = build(np.array([0.0, 0.0, 80.0]), axis, params())
    assert cache.cache_info()[:2] == (hits + 1, misses)
    changed = params().replace(gamma_e=27.0)
    assert changed != params() and hash(changed) != hash(params())
    h_changed = build(np.array([0.0, 0.0, 80.0]), axis, changed)
    assert cache.cache_info()[:2] == (hits + 1, misses + 1)
    assert not np.array_equal(h, h_changed)

