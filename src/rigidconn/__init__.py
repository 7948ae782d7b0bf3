"""Exact tools for the rigid irregular connection on the punctured line."""

from .chevalley import (ChevalleyAlgebra, KacWindow, build_chevalley,
                        heisenberg_pairing_check, kostant_check,
                        principal_triple)
from .connection import (MatrixConnection, ScalarOperator, adjoint_connection,
                         companion_connection, g2_seven_dim, gauge_transform,
                         scalar_reduction, sl2_sym, sl_standard,
                         slope_at_infinity, so_odd_standard, sp_standard)
from .errors import (ConsistencyError, CyclicVectorError,
                     SlopeVerificationError, ValidationError)
from .formal import (check_rigidity, h1_middle_via_solver, kernel_dimension,
                     residue_pair, sl2_double_cover_h1)
from .galois import (CohomologyReport, cohomology_dims, galois_group,
                     local_invariants, subregular_table)
from .rootsys import RootSystem, build_root_system
from .weights import (WeightSystem, load_weight_system,
                      principal_sl2_decomposition, save_weight_system,
                      weight_system)

__version__ = "0.1.0"

__all__ = [
    "ChevalleyAlgebra", "CohomologyReport", "ConsistencyError",
    "CyclicVectorError", "KacWindow", "MatrixConnection", "RootSystem",
    "ScalarOperator", "SlopeVerificationError", "ValidationError",
    "WeightSystem", "adjoint_connection", "build_chevalley",
    "build_root_system", "check_rigidity", "cohomology_dims",
    "companion_connection", "g2_seven_dim", "galois_group",
    "gauge_transform", "h1_middle_via_solver", "heisenberg_pairing_check",
    "kernel_dimension", "kostant_check", "load_weight_system",
    "local_invariants", "principal_sl2_decomposition", "principal_triple",
    "residue_pair", "save_weight_system", "scalar_reduction",
    "sl2_double_cover_h1", "sl2_sym", "sl_standard", "slope_at_infinity",
    "so_odd_standard", "sp_standard", "subregular_table", "weight_system",
]
