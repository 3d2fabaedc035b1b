"""Conditioning of linear finite element stiffness matrices on anisotropic
simplicial meshes: assembly, exact extreme eigenvalues, a-priori bounds, and
experiment sweeps."""

from .assembly import (
    DiffusionField,
    SparseSymmetric,
    assemble_stiffness,
    average_diffusion_all,
    jacobi_scale,
    read_matrix_market,
    write_matrix_market,
)
from .bounds import (
    AnisotropyMetrics,
    BoundReport,
    Calibration,
    bound_lambda_max,
    build_report,
    calibrate,
    compute_beta,
    evaluate_raw_bounds,
)
from .mesh import (
    ElementGeometry,
    MeshMetrics,
    SimplicialMesh,
    compute_metrics,
    export_mesh,
    generate_boundary_layer,
    generate_chebyshev_1d,
    generate_power2_1d,
    generate_uniform,
    import_mesh,
    max_aspect_ratio,
)
from .spectra import (
    SpectralResult,
    extreme_eigenvalues,
)

__version__ = "0.1.0"
