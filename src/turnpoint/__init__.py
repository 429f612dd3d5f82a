"""Turning-point solver for the 1D time-independent Schrodinger equation.

Energy levels follow from the turning-point width d(E) of the well at the
unknown energy: the zero-point level solves E = 2*hbar^2/(m*d^2) and the
excited branches solve K(E)*d(E) = q*pi. A Numerov shooting solver provides
the orthodox comparison values, and the single-step potential gets its
matched transmission/reflection coefficients in both energy regimes.
"""

from .numerics import Bracket, Tolerances, bisect, bracket_roots, integrate, solve_self_consistent
from .potentials import (
    Domain,
    Expression,
    HarmonicOscillator,
    InfiniteSquareWell,
    ParabolicWell,
    PotentialSpec,
    QuadraticInverse,
    Step,
    TrigWell,
    TurningPoints,
    UnitSystem,
    VWell,
    analytic_turning_points,
    evaluate,
    parse_potential_spec,
)
from .reference import NumerovConfig, ReferenceLevel, shoot_bound_states, standard_step_R
from .scattering import ScatteringCoefficients, match_coefficients, raw_subbarrier_R, transmission_at
from .solver import (
    EnergyLevel,
    GroundState,
    LevelSpec,
    WaveFunctionDescriptor,
    delta_equivalent_energy,
    excited_energy,
    ground_state_energy,
    normalize,
    q_function,
    s_integral,
    sample,
    turning_points,
    wavefunction,
)

__version__ = "0.1.0"

__all__ = [
    "Bracket",
    "Domain",
    "EnergyLevel",
    "Expression",
    "GroundState",
    "HarmonicOscillator",
    "InfiniteSquareWell",
    "LevelSpec",
    "NumerovConfig",
    "ParabolicWell",
    "PotentialSpec",
    "QuadraticInverse",
    "ReferenceLevel",
    "ScatteringCoefficients",
    "Step",
    "Tolerances",
    "TrigWell",
    "TurningPoints",
    "UnitSystem",
    "VWell",
    "WaveFunctionDescriptor",
    "analytic_turning_points",
    "bisect",
    "bracket_roots",
    "delta_equivalent_energy",
    "evaluate",
    "excited_energy",
    "ground_state_energy",
    "integrate",
    "match_coefficients",
    "normalize",
    "parse_potential_spec",
    "q_function",
    "raw_subbarrier_R",
    "s_integral",
    "sample",
    "shoot_bound_states",
    "solve_self_consistent",
    "standard_step_R",
    "transmission_at",
    "turning_points",
    "wavefunction",
]
