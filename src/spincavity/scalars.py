"""Scalar pieces of the chain, importable without numpy.

The constants, records and closed forms that the coupling budget and the
config defaults are built from, the errors the command line maps to exit
codes, and `Record`, the base of every record in the package.  The physics
modules import them from here, so `experiments`, `cavity_qed`,
`circuit_model`, `spin_models` and `fitting` hand out these same objects, and
the CLI's `config dump` and `budget` run without loading numpy.
Frequencies are in MHz, fields in mT or pT as noted, volumes in mm^3.
"""

import math

GAMMA_E = 28.0  # electron gyromagnetic ratio, MHz/mT
# number of levels of each defect's electron (x) nitrogen-14 product space
DIMENSION = {"nv": 9, "p1": 6}

PLANCK_H = 6.62607015e-34  # J s, exact in the 2019 SI
MU_0 = 1.25663706127e-06  # vacuum permeability, N/A^2 (CODATA 2022)

# conventional diamond cell: 8 carbon atoms, edge 0.3567 nm
LATTICE_A_MM = 0.3567e-6
CARBON_SITES_PER_MM3 = 8.0 / LATTICE_A_MM**3

OMEGA_R_MHZ = 5390.0
Q_INT = 1300.0
Q_EXT_MIN = 3500.0

# effective mode volume reproducing the quoted 14 pT vacuum field
MODE_VOLUME_MM3 = 11.45

# Sample 1: 3 x 1.5 x 1.1 mm^3 plate, 10 ppm NV, 20 ppm P1
SAMPLE1_VOLUME_MM3 = 3.0 * 1.5 * 1.1
SAMPLE1_NV_PPM = 10.0
SAMPLE1_P1_PPM = 20.0

DEFAULT_TRANSITION_WEIGHT = 0.5  # idealized two-level drive matrix element
# loaded linewidths a circuit trace spans on either side of its resonance
TRACE_LINEWIDTHS = 8.0


class ConfigError(Exception):
    """A config, or an option next to it, that the command cannot run with (exit 2)."""


class CsvError(Exception):
    """A CSV input that cannot be read as the command's data (exit 4)."""


class FitError(ValueError):
    """Raised when the data violates a fit precondition (no peak, no crossing)."""


class TrackingError(ValueError):
    """The field grid of a sweep is too coarse to follow the levels."""


class Record:
    """An immutable record.  Its fields are the class annotations, in order,
    and a class attribute of a field's name is its default.

    Every method is inherited, so defining a record generates no code: the
    instance takes its fields by position or keyword (a missing, unknown or
    repeated field is a TypeError), then runs `__post_init__`, which may
    validate or convert them with `object.__setattr__`.  Records compare and
    hash by their field values; `class R(Record, eq=False)` compares and
    hashes by identity instead, as records of arrays do.
    """

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        cls, values = type(self), dict(zip(self._fields, args))
        wrong = [name for name in kwargs if name in values or name not in cls._fields]
        if wrong or len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes the fields {cls._fields}, each once; "
                            f"got {len(args)} by position and {list(kwargs)} by keyword")
        values = {**cls._defaults, **values, **kwargs}
        missing = [name for name in cls._fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__} is missing the fields {missing}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def replace(self, **changes):
        """A copy with the given fields changed, validated again."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class ResonatorMode(Record):
    """Cavity frequency and decay rates, all in MHz (FWHM convention)."""

    omega_r: float
    kappa_int: float
    kappa_ext1: float
    kappa_ext2: float

    def __post_init__(self):
        rates = (self.kappa_int, self.kappa_ext1, self.kappa_ext2)
        if any(r < 0 for r in rates) or sum(rates) <= 0:
            raise ValueError("decay rates must be non-negative with positive total")

    @property
    def kappa(self):
        return self.kappa_int + self.kappa_ext1 + self.kappa_ext2


class EnsembleSpec(Record):
    """Inputs of the spin-count budget for one defect species in one sample."""

    density_ppm: float
    volume: float  # mm^3
    orientation_fraction: float = 1.0
    nuclear_fraction: float = 1.0
    filling_factor: float = 1.0

    def __post_init__(self):
        if self.density_ppm < 0 or self.volume < 0:
            raise ValueError("density and volume must be non-negative")
        for name in ("orientation_fraction", "nuclear_fraction", "filling_factor"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


class CircuitElements(Record):
    """Lumped elements of the loop-gap resonator network (circuit_model)."""

    l: float            # nH
    c: float            # pF
    r_loss: float       # Ohm, parallel
    cc1: float = 10.0   # fF
    cc2: float = 10.0   # fF
    cx: float = 0.0     # fF
    z0: float = 50.0    # Ohm

    def __post_init__(self):
        if self.l <= 0 or self.c <= 0 or self.z0 <= 0 or self.r_loss <= 0:
            raise ValueError("l, c, r_loss, z0 must be positive")
        if self.cc1 < 0 or self.cc2 < 0 or self.cx < 0:
            raise ValueError("coupling and crosstalk capacitances must be non-negative")


def resonator_mode(
    omega_r=OMEGA_R_MHZ, q_int=Q_INT, q_ext1=2.0 * Q_EXT_MIN, q_ext2=2.0 * Q_EXT_MIN
):
    """Cavity decay rates from the internal and per-port external quality factors.

    The default ports each carry half of the combined external loss Q_EXT_MIN.
    """
    return ResonatorMode(omega_r, omega_r / q_int, omega_r / q_ext1, omega_r / q_ext2)


def q_decomposition(elems):
    """Resonance frequency and quality factors of the cx = 0 network.

    Weak-coupling closed forms: seen from the tank, each port capacitor is
    nearly grounded through the small z0, so it adds to the tank capacitance,
    C_eff = C + cc1 + cc2, and leaks power at a rate set by z0 cc^2.

    :returns: (omega_0 MHz, q_int, q_ext1, q_ext2)
    """
    if elems.cx != 0:
        raise ValueError("q_decomposition is defined for zero crosstalk only")
    l = elems.l * 1e-9
    c_eff = (elems.c + 1e-3 * (elems.cc1 + elems.cc2)) * 1e-12
    w0 = 1.0 / math.sqrt(l * c_eff)
    q_int = elems.r_loss * math.sqrt(c_eff / l)
    q_ext = []
    for cc_ff in (elems.cc1, elems.cc2):
        leak = w0 * elems.z0 * (cc_ff * 1e-15) ** 2
        q_ext.append(c_eff / leak if leak > 0 else math.inf)  # an uncoupled port never leaks
    return w0 / (2e6 * math.pi), q_int, q_ext[0], q_ext[1]


def vacuum_brms(omega_r, mode_volume):
    """RMS vacuum magnetic field of the mode, in pT.

    B_rms = sqrt(mu0 h f / (2 V)): half of the zero-point energy h f / 2
    stored magnetically in an effective volume V.
    """
    if omega_r <= 0 or mode_volume <= 0:
        raise ValueError("frequency and mode volume must be positive")
    f_hz = omega_r * 1e6
    v_m3 = mode_volume * 1e-9
    return math.sqrt(MU_0 * PLANCK_H * f_hz / (2.0 * v_m3)) * 1e12


def single_spin_coupling(b_rms, gamma_e, transition_weight):
    """Coupling of one spin to the vacuum field, in Hz.

    g = gamma_e * B_rms * sqrt(w) with w the squared drive matrix element of
    the transition (from transition_spectrum).
    """
    if transition_weight < 0:
        raise ValueError("transition weight must be non-negative")
    # MHz/mT * pT: 1e6 Hz / 1e9 pT leaves a factor 1e-3
    return gamma_e * b_rms * 1e-3 * math.sqrt(transition_weight)


def effective_spin_count(spec):
    """Number of spins participating in one transition of one sub-ensemble.

    Carbon site density times ppm concentration, cut down by the fraction of
    bond orientations and nuclear projections that contribute.  The mode
    filling factor is deliberately not applied here; it belongs to the
    coupling (g -> g sqrt(filling)) where the budget assembles it.
    """
    n = (
        CARBON_SITES_PER_MM3
        * spec.volume
        * spec.density_ppm
        * 1e-6
        * spec.orientation_fraction
        * spec.nuclear_fraction
    )
    return n


def ensemble_coupling(g_single, n):
    """Collective coupling g * sqrt(n), converted from Hz to MHz."""
    if n < 0:
        raise ValueError("spin count must be non-negative")
    return g_single * math.sqrt(n) * 1e-6


def coupling_budget(
    density_ppm=SAMPLE1_NV_PPM,
    volume_mm3=SAMPLE1_VOLUME_MM3,
    orientation_fraction=0.5,
    nuclear_fraction=1.0,
    filling_factor=1.0,
    omega_r=OMEGA_R_MHZ,
    mode_volume_mm3=MODE_VOLUME_MM3,
    transition_weight=DEFAULT_TRANSITION_WEIGHT,
):
    """Chain from mode volume to collective coupling; returns the whole ledger."""
    spec = EnsembleSpec(
        density_ppm, volume_mm3, orientation_fraction, nuclear_fraction, filling_factor
    )
    brms = vacuum_brms(omega_r, mode_volume_mm3)
    g1 = single_spin_coupling(brms, GAMMA_E, transition_weight)
    n = effective_spin_count(spec)
    g_ens = ensemble_coupling(g1, n * spec.filling_factor)
    return {
        "brms_pt": brms,
        "g_single_hz": g1,
        "n_spins": n,
        "g_ens_mhz": g_ens,
    }
