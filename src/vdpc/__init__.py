"""Density-level clustering toolkit.

The package provides the variational density peak clustering pipeline
(`vdpc_run`), its DPC-style density analytics (`density_profile`,
`decision_graph`), the DBSCAN / SNNC / DPC baselines it builds on, and
ARI / NMI evaluation metrics, plus a CLI (``vdpc``) that reproduces the
bundled benchmark suites.
"""

from .baselines import (
    DbscanParams,
    dbscan,
    dpc_assign,
    dpc_select_centers,
    relabel_contiguous,
    snnc,
)
from .dataset import (
    CondensedDistances,
    Dataset,
    load_condensed_matrix,
    load_points_csv,
    pairwise_distances,
)
from .density import (
    DensityProfile,
    cutoff_distance,
    decision_graph,
    delta_and_neighbors,
    density_profile,
    local_density,
)
from .errors import DataError, ParameterError, StageError, VdpcError
from .metrics import adjusted_rand_index, contingency, normalized_mutual_information
from .vdpc import (
    ADbscanDerivation,
    AblationOptions,
    DensityLevels,
    VdpcParams,
    VdpcResult,
    asnnc,
    compute_levels,
    vdpc_run,
)

__version__ = "1.0.0"

__all__ = [
    "ADbscanDerivation",
    "AblationOptions",
    "CondensedDistances",
    "DataError",
    "Dataset",
    "DbscanParams",
    "DensityLevels",
    "DensityProfile",
    "ParameterError",
    "StageError",
    "VdpcError",
    "VdpcParams",
    "VdpcResult",
    "adjusted_rand_index",
    "asnnc",
    "compute_levels",
    "contingency",
    "cutoff_distance",
    "dbscan",
    "decision_graph",
    "delta_and_neighbors",
    "density_profile",
    "dpc_assign",
    "dpc_select_centers",
    "load_condensed_matrix",
    "load_points_csv",
    "local_density",
    "normalized_mutual_information",
    "pairwise_distances",
    "relabel_contiguous",
    "snnc",
    "vdpc_run",
    "__version__",
]
