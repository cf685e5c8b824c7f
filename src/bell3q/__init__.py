"""Bounds on Mermin and Svetlichny operators for three-qubit states measured
with biased, weak (non-projective) dichotomic observables.

The package computes the closed-form quantum bounds as functions of the
two largest singular values of the state's tripartite correlation tensor,
the six strengths and the relative angles of each party's pair, and validates
them against independent numerical oracles (see-saw ascent, free or held
at the bound's relative angles, and exhaustive bias enumeration).
"""

from .pauli import (CorrelationDecomposition, PhysicalityError, ThreeQubitState,
                    as_t_matrix, as_t_tensor, decompose, decomposition_from_t,
                    reconstruct)
from .smallmat import singular_values_3x9
from .observables import (GeneralObservable, MeasurementSetting, mermin_expectation,
                          svetlichny_expectation, triple_expectation,
                          variant_expectations)
from .reports import BoundReport, ConsistencyError, Strengths
from .states import (StateSpec, build, generalized_ghz_state, ghz_state, is_tstate,
                     parse_state_spec, random_state, t_state, w_state,
                     white_noise_mix)
from .mermin import (build_v_matrix, i_plus_minus, k_max, mermin_bound_degenerate_smax,
                     mermin_bound_equal_strengths, mermin_bound_unbiased,
                     mermin_bound_x_asymmetric, mermin_sufficient_orthogonal)
from .svetlichny import (build_w_matrix, j_plus_minus, l_max, svetlichny_bound_degenerate_smax,
                         svetlichny_bound_equal_strengths, svetlichny_bound_x_asymmetric,
                         svetlichny_sufficient_orthogonal)
from .oracle import SeeSawConfig, SeeSawResult, bias_optimize, see_saw_maximize

__version__ = "0.1.0"
