"""Exact spectral and protocol analysis for bipartite pure-state entanglement.

Submodules:
  qmath     distances, Schmidt calculus, product extensions
  spectrum  exact tensor-power class spectra and normal approximation
  sigsub    significant-subspace dimensions and growth fits
  locc      protocol IR, standard form, dilution builders, certificates
  sampling  seeded random states and unitaries for random protocol programs
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
    marginal_trace_distance,
    nearest_product_extension,
    operator_norm,
    partial_trace,
    trace_distance,
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
    ResidualTable,
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
