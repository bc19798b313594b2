"""Exact spectral and protocol analysis for bipartite pure-state entanglement.

Submodules:
  qmath     distances, Schmidt calculus, product extensions
  spectrum  exact tensor-power class spectra and normal approximation
  sigsub    significant-subspace dimensions and growth fits
  locc      protocol IR, standard form, dilution builders, certificates
  sampling  seeded random states and spectra for property tests
  lab       experiment configs, commands, and the CLI
"""

from .errors import CapExceededError, DegenerateSpectrumError, EntlabError, ValidationError
from .qmath import (
    DensityMatrix,
    ProductExtension,
    PureBipartiteState,
    SchmidtProfile,
    epsilon_rank,
    fidelity,
    nearest_product_extension,
    operator_norm,
    partial_trace,
    schmidt_decompose,
    trace_distance,
    trace_distance_witness,
)
from .sigsub import (
    GrowthFit,
    MinDilutionResult,
    Prop1Result,
    Prop2Result,
    SigQueryResult,
    check_prop1,
    check_prop2,
    growth_fit,
    min_dilution_dimension,
    sig_dim,
)
from .spectrum import (
    BaseSpectrum,
    BerryEsseenResult,
    ClassSpectrum,
    SortedSpectrumView,
    SpectrumStats,
    berry_esseen_grid,
    berry_esseen_residual,
    gaussian_cdf,
    gaussian_quantile,
    mu,
    spectrum_stats,
    tensor_power_spectrum,
)

__version__ = "0.1.0"
