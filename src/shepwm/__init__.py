"""Selective harmonic elimination PWM toolkit for cascaded H-bridge inverters.

Solves switching-angle problems with particle swarm optimization, analyzes
harmonic spectra and THD of the resulting multilevel waveforms, and builds
variable-DC-link lookup tables that hold the full-modulation solution's
spectrum across the whole output-voltage range.
"""

__version__ = "0.1.0"

from .dclink import (
    ComparisonRow,
    ComparisonTable,
    LookupRow,
    LookupTable,
    build_lookup,
    compare_methods,
)
from .harmonics import (
    HarmonicSpectrum,
    analytic_harmonic,
    analytic_spectrum,
    dft_spectrum,
    pattern_thd,
    segment_integral_harmonic,
    thd,
)
from .optimizer import OptimizerResult, PsoConfig, derive_seed, minimize
from .pattern import (
    DEFAULT_SIGNS_K6,
    SwitchingPattern,
    WaveformSamples,
    default_sign_pattern,
    synthesize,
)
from .she import SheProblem, Solution, cost, cost_batch, solve, sweep

__all__ = [
    "__version__",
    "ComparisonRow",
    "ComparisonTable",
    "DEFAULT_SIGNS_K6",
    "HarmonicSpectrum",
    "LookupRow",
    "LookupTable",
    "OptimizerResult",
    "PsoConfig",
    "SheProblem",
    "Solution",
    "SwitchingPattern",
    "WaveformSamples",
    "analytic_harmonic",
    "analytic_spectrum",
    "build_lookup",
    "compare_methods",
    "cost",
    "cost_batch",
    "default_sign_pattern",
    "derive_seed",
    "dft_spectrum",
    "minimize",
    "pattern_thd",
    "segment_integral_harmonic",
    "solve",
    "sweep",
    "synthesize",
    "thd",
]
