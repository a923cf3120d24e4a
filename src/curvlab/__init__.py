"""curvlab: numerical curvature analysis for Hermitian metrics.

Pipelines run metric -> 2-jet -> Chern tensor -> unitary frame -> quadratic
functionals, with cone-restricted copositivity tests and searches over the
unitary frame bundle layered on top.
"""

from .config import DEFAULT, Tolerances
from .errors import CurvlabError, DomainError, NumericalError, UsageError
from .linalg import EigenDecomposition, cholesky_frame, self_adjoint_eigen
from .metrics import MetricField, MetricJet, finite_difference_jet, jet_at, make_metric
from .curvature import (ChernTensor, FrameConvention, RicciKind, curvature_from_jet,
                        kahler_constant, make_synthetic, paper_hopf, paper_tricerri,
                        random_tensor, ricci, scalars, skew_pair, to_frame,
                        transform_frame)
from .functionals import (ConstAlteredHBC, ConstAlteredRBC, ConstHSC,
                          CurvatureMatrices, FunctionalKind, bisectional,
                          constant_identity_check, evaluate, frame_matrices,
                          hsc, matrices_from, rayleigh_bounds,
                          ricci_qobc_bounds, weitzenbock)
from .cones import (Cone, EDMatrix, cone_min, copositive_2x2, difference_form_pairings,
                    dual_edm_test, edm_from_vector, full_cone, generator_cone, make_cone,
                    monotone_nonneg, nonneg_orthant, perron_weights, perron_criterion_check)
from .search import (FrameExtremum, SearchConfig, extremize, invariance_test,
                     tricerri_family_extrema, unitary_from_params)
from .reports import IdentityReport, VerifyReport

__version__ = "0.1.0"
