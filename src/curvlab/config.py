"""Default numerical tolerances, collected in one record.

Every tolerance used by the library is a field of ``Tolerances``.
Scale-relative tolerances say so in their comment.  MAX_DIM bounds every
dimension read from outside the program, and MAX_ENTRY the modulus of every
entry of a curvature tensor or of a matrix handed to a cone test.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    frame_change_unitary: float = 1e-8  # |U^H U - I| accepted by transform_frame
    metric_conditioning: float = 1e-4   # metric refused unless lambda_min > this x lambda_max
    frame_orthonormal: float = 1e-10    # |E^T g conj(E) - I|, dimensionless
    tensor_hermitian: float = 1e-8      # four-index Hermitian symmetry, x |R|
    fd_min_step: float = 1e-10          # below this, cancellation dominates
    identity_check: float = 1e-10       # identity-report residual bound; x max|R| in invariance_test
    cone_agreement: float = 1e-8        # cross-oracle agreement for cone tests
    cone_sign: float = 1e-10            # negative face weight still signed nonnegative, x max weight
    perron_ratio: float = 1e-10         # slack on Perron weights r in [0, 1] and their ascent, dimensionless
    cone_gram_rcond: float = 1e-12      # smallest/largest Gram eigenvalue of a face kept by cone_min
    tricerri_row_bound: float = 1e-12   # slack on |b|^2, |d|^2 <= 1 in the Tricerri family
    reeval: float = 1e-9                # frame extremum re-evaluation drift, x max(|value|, max|R|)


DEFAULT = Tolerances()

# largest dimension accepted from outside (metric --dim, synthetic tensor n,
# cone-check matrices); cone_min's face enumeration visits up to 2^MAX_DIM faces
MAX_DIM = 12

# largest entry modulus of a curvature tensor (every one, checked where it is
# built) and of a matrix given to cone_min, copositive_2x2, dual_edm_test or
# perron_criterion_check: at this bound squares and n^2-fold sums of entries
# stay finite, so no check downstream overflows
MAX_ENTRY = 2.0 ** 500
