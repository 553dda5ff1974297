"""Forward models and fits for spin ensembles coupled to a microwave resonator.

The submodules are imported on first use, so that a command that needs no
array (`config dump`, `budget`) does not load numpy.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "cavity_qed",
    "circuit_model",
    "experiments",
    "fitting",
    "spin_models",
    "sweep_cli",
]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
