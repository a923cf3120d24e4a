"""Default numerical tolerances, collected in one record.

Every tolerance used by the library defaults to a field of ``Tolerances``;
callers override per call where an operation takes a ``tol`` argument.
Scale-relative tolerances say so in their comment.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    hermitian_entry: float = 1e-12      # entry vs conjugate-transposed entry, x max(1, |M|)
    unitary: float = 1e-10              # |U^H U - I|
    frame_change_unitary: float = 1e-8  # |U^H U - I| accepted by transform_frame
    eigen_reconstruction: float = 1e-9  # |M v - lambda v|, x |M|
    positive_definite: float = 1e-12    # smallest admissible metric eigenvalue
    frame_orthonormal: float = 1e-10    # |E^H g E - I|
    tensor_hermitian: float = 1e-8      # four-index Hermitian symmetry, x |R|
    jet_reality: float = 1e-8           # conj(ddg[i,j,k,l]) vs ddg[j,i,l,k]
    scalar_imag: float = 1e-8           # imaginary residue of traces
    matrices_imag: float = 1e-8         # flag threshold for dropped imaginary parts, x |R|
    fd_min_step: float = 1e-10          # below this, cancellation dominates
    identity_check: float = 1e-10       # default residual bound for identity reports
    cone_agreement: float = 1e-8        # cross-oracle agreement for cone tests
    cone_sign: float = 1e-10            # negative face weight still signed nonnegative, x max weight
    cone_gram_rcond: float = 1e-12      # smallest/largest Gram eigenvalue of a face kept by cone_min
    tricerri_row_bound: float = 1e-12   # slack on |b|^2, |d|^2 <= 1 in the Tricerri family
    reeval: float = 1e-9                # frame extremum re-evaluation drift


DEFAULT = Tolerances()
