"""Forward models and fits for spin ensembles coupled to a microwave resonator."""

from . import cavity_qed, circuit_model, experiments, fitting, spin_models

__version__ = "0.1.0"

__all__ = [
    "cavity_qed",
    "circuit_model",
    "experiments",
    "fitting",
    "spin_models",
    "sweep_cli",
]
