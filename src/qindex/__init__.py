"""qindex: index theory of conditional expectations on multimatrix
C*-algebras, combinatorial data of tracial module categories, and the
classification of finite-index sublattices between root and weight
lattices."""

from .algebra import (AlgebraElement, MultiMatrixAlgebra, StarHomomorphism,
                      TraceWeights, group_algebra_inclusion,
                      identity_homomorphism, is_positive)
from .expectation import (ConditionalExpectation, IndexReport, QuasiBasis,
                          canonical_expectation, compute_index_report,
                          equivariantize, probabilistic_index_bounds,
                          quasi_basis_report, restrict_to_intermediate,
                          scalar_index, validate_expectation, watatani_index)
from .fusion import (BigradedDims, DimensionVector, FusionModule, FusionRing,
                     ModuleTrace, MultiplicityFunctor, action_functor,
                     check_locally_constant, d_function, equivalence_classes,
                     functor_trace, jones_membership, jones_value,
                     module_trace_solve, pf_dimensions, plancherel_weight,
                     qsystem_degree, standard_solution_components,
                     validate_fusion, validate_module)
from .generators import (gen_pointed, gen_quotient_module, gen_regular_module,
                         gen_tlj)
from .lattice import (CartanData, FiniteAbelianGroup, IrrepLabel,
                      SublatticeSpec, cartan_data, center_group,
                      classify_subgroups, crosscheck_torus_index,
                      enumerate_subgroups, hermite_normal_form,
                      irrep_membership, smith_normal_form)

__version__ = "0.1.0"
