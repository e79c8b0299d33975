"""Solitary waves of a nonlocal Boussinesq system for two-layer internal waves.

Spectral traveling-wave solver (Fourier pseudospectral collocation plus a
stabilized fixed-point iteration with optional vector extrapolation),
cross-validated against an independent oracle (a quadrature of the
traveling-wave ODE's first integral), with the linear dispersion theory
and amplitude/decay analyses built in.
"""

__version__ = "0.1.0"

from .params import ModelParameters, WaveType, make_parameters, wave_type

__all__ = [
    "ModelParameters",
    "WaveType",
    "make_parameters",
    "wave_type",
    "__version__",
]
