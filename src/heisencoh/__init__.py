"""heisencoh: discrete Heisenberg group arithmetic, representations, small
divisors, and Fourier-side solvers for the difference equation
f - f(. + u) = g on the torus.

Each exported name is imported from its submodule on first use (PEP 562):
`import heisencoh` loads no submodule, and no submodule loads numpy until
`dft` or `inverse_dft` is called.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "heisenberg": (
            "G1", "G2", "G3", "IDENTITY", "HeisElement", "HeisElementN", "NormalForm",
            "commutator", "conjugate", "multiply_n", "normal_form", "reconstruct",
        ),
        "coefficients": ("CoefficientField", "read_coefficients", "write_coefficients"),
        "precision": ("PrecisionReal", "continued_fraction", "convergents", "liouville_constant"),
        "diophantine": ("ClassificationReport", "classify", "fan_member", "small_divisor"),
        "coboundary": ("CoboundaryProblem", "coboundary_from", "obstruction", "residual", "solve"),
        "fourier": ("dft", "inverse_dft", "sobolev_norm"),
        "representations": ("IrrepParams", "SemidirectElement", "character", "irrep_matrix"),
        "cohomology": ("AbelianGroupDesc", "binom", "cohomology_table"),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
