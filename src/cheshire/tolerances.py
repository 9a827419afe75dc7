"""Every numerical tolerance, assigned once with the reason for its value; one whose
reason is another tolerance is derived from it.  Modules import the names they read."""

# Normalizing leaves a few ulps on a ket's squared norm, a density's trace or sum_k |p_k|^2.
NORM_TOL = 1e-12
# Outer products of kets are Hermitian only up to rounding; densities keep the Hermitian part.
HERMITIAN_TOL = 1e-12
# eigvalsh errs by about 1e-15 on 4x4 operands of norm 1; spectra may leave [0, 1] by this.
EIGENVALUE_TOL = 1e-10
# A Tr(E rho), P or success-branch norm at most this is an orthogonal postselection.
POSTSELECTION_EPS = 1e-12
# Config amplitudes within this of unit norm are renormalized: about 6 typed digits.
NORM_SNAP_TOL = 1e-6

# A sampled pointer's norm^2 scales every pointer matrix, and so P and C, by the same factor.
POINTER_NORM_TOL = 1e-10
# A pointer mean m moves every readout by m, and <xy> by m times the first moments.
MEAN_TOL = 1e-8
# A pointer variance 1 + v rescales every coupling by about 1 + v/2.
VARIANCE_TOL = 1e-6
# Squared amplitude a shifted grid wave may lose past the grid's edges: below POINTER_NORM_TOL.
EDGE_AMPLITUDE_TOL = 1e-12
# The pointer bounds above keep the grid oracle's C and negativity this close to the closed form.
ORACLE_AGREEMENT_TOL = 1e-6

# K from effects EIGENVALUE_TOL above 1 is (1 + 1e-10) diag(p); 10x room for rescaling by p^-1/2.
REALIZABILITY_TOL = 1e-9
# Rounding of the failure density p_cl - p_s, whose terms are at most 1/(2 pi), is about 1e-16.
POSITIVITY_TOL = 1e-10
# A branch weight below this counts as zero, so the 1/sqrt(p) scaling of K stays below 1e15.
DEAD_BRANCH_WEIGHT = 1e-30
# |K_kk| a zero-weight branch may keep: amplitudes below 1e-12 are rounding, and K is quadratic.
DEAD_BRANCH_COHERENCE = 1e-24
# Rounding of the sampler's acceptance ratio, a few ulps on sums of three terms, with room.
ACCEPTANCE_SLACK = 1e-12
# The acceptance ratio is a probability up to the realizability slack and its own rounding.
ACCEPTANCE_BOUND = 1.0 + REALIZABILITY_TOL + ACCEPTANCE_SLACK

# |C| may pass its bound by this: effects and densities may leave [0, 1] by EIGENVALUE_TOL.
BOUND_SLACK = EIGENVALUE_TOL
# Gram eigenvalues at most this are dropped directions (coincident meter states at g = 0).
RANK_TOL = 1e-12
# Partial-transpose eigenvalues above -this are zero, so separable states score exactly 0.
EIGENVALUE_NOISE = 1e-14
