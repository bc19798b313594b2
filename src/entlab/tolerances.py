"""Numeric tolerance ladder, defined once.

VALIDITY_TOL   input validation (hermiticity, trace, norm)
EQUALITY_TOL   equality assertions between independently computed values
"""

VALIDITY_TOL = 1e-10
EQUALITY_TOL = 1e-9

# sum-to-one check for probability profiles
PROFILE_SUM_TOL = 1e-12

# relative threshold for epsilon_rank used in rank-vs-subspace checks
RANK_REL_TOL = 1e-9

# two classes whose log2-eigenvalues differ by less than this are merged
CLASS_MERGE_BITS = 1e-12

# composition enumeration refuses beyond this many classes
CLASS_CAP_DEFAULT = 50_000_000

# dense simulation refuses beyond this total Hilbert dimension
DENSE_DIM_CAP = 2 ** 14

# the weights path scores K outcomes of d weights each; a shift family
# is refused (and a block family stays symbolic) beyond K*d entries
WEIGHTS_CAP = 1_000_000
