"""Exact-arithmetic toolkit for finite-dimensional baric and Bernstein
algebras over the rationals."""

from . import catalog, fileformat, groebner, linalg
from .core import (AlgebraError, AlgebraTable, Element, InternalCheckError,
                   left_mult_operator, poly_eval, principal_powers)
from .elements import (ElementAnalysis, analyze_element, generic_degree,
                       minimal_poly_form_check, singly_generated_subalgebra,
                       train_element_rank, train_f, train_polynomial)
from .multipoly import MultiPoly
from .structure import (PeirceDecomposition, StructureReport, classify,
                        find_idempotent, idempotent_family, is_bernstein,
                        lyubich_ideal, peirce, zero_v_squared)
from .symbolic import (IdentityCheck, check_identity, generic_element,
                       symbolic_rank)
from .train import (EngelYagzhevReport, PowerChainReport, TrainReport,
                    check_lx_power_splitting, engel_check,
                    engel_yagzhev_report, full_trees, generic_nil_index,
                    ideal_power_chain, locally_train_analysis,
                    operator_nilpotency_check, parenthesized_powers,
                    train_analysis, tree_power_sum)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError", "AlgebraTable", "Element", "ElementAnalysis",
    "EngelYagzhevReport", "IdentityCheck", "InternalCheckError", "MultiPoly",
    "PeirceDecomposition", "PowerChainReport", "StructureReport",
    "TrainReport", "analyze_element", "catalog",
    "check_identity", "check_lx_power_splitting", "classify", "engel_check",
    "engel_yagzhev_report", "fileformat", "find_idempotent", "full_trees",
    "generic_degree", "generic_element", "generic_nil_index", "groebner",
    "ideal_power_chain", "idempotent_family", "is_bernstein",
    "left_mult_operator", "linalg", "locally_train_analysis", "lyubich_ideal",
    "minimal_poly_form_check", "operator_nilpotency_check",
    "parenthesized_powers", "peirce", "poly_eval", "principal_powers",
    "singly_generated_subalgebra", "symbolic_rank", "train_analysis",
    "train_element_rank", "train_f", "train_polynomial", "tree_power_sum",
    "zero_v_squared",
]
