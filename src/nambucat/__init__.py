"""Exact computer algebra for n-ary Hom-Nambu and Hom-Nambu-Lie algebras
over the rationals: identity verification on structure constants, twisting
and extension constructions, and centroid/derivation spaces."""

from . import corpus, fileio
from .algebra import (BilinearForm, BracketTensor, HomAssocNAry,
                      HomLeibnizAlgebra, HomNambuAlgebra, QuadraticStructure,
                      adjoint_operator, eval_bracket)
from .checks import (CheckReport, Counterexample, TupleBudgetExceeded,
                     check_hom_leibniz, check_hom_nambu_identity,
                     check_morphism, check_multiplicativity, check_quadratic,
                     check_representation, check_skew_symmetry,
                     check_total_hom_associativity)
from .constructions import (ConstructionError, centroid_twisted_bracket,
                            induced_hom_leibniz, pullback_form, raise_arity,
                            reduce_arity, self_twist, tensor_product,
                            trace_induced_ternary, tstar_extension,
                            twist_by_morphism)
from .faulkner import (QuadraticLieAlgebra, check_phi_equivariance,
                       faulkner_ternary, omega_twist_leibniz, phi_map,
                       tensor_leibniz)
from .linalg import Matrix, Vector, det, frac, frac_str, in_span, kron, \
    kron_vec, nullspace, rank, rref, solve, solve_matrix
from .representations import (Representation, adjoint_rep, coadjoint_rep,
                              rep_isomorphism_psi)
from .spaces import (SubspaceBasis, assoc_centroid_membership,
                     centroid_derivation_product, centroid_membership,
                     compute_center, compute_central_derivations,
                     compute_centroid, compute_derivations,
                     derivation_commutator, derivation_membership,
                     inner_derivation, tensor_centroid_derivation,
                     varsigma_hom_lie)

__version__ = "0.1.0"
