"""Bifocal tensor averaging and camera recovery for collinear camera networks."""

from .averaging import (
    AdmmConfig,
    AveragingResult,
    average,
    project_collinear_essential,
    project_collinear_fundamental,
    project_general_essential,
    project_general_fundamental,
)
from .geometry import (
    BifocalTensor,
    CameraModel,
    Track,
    bifocal_from_pair,
    epipole,
    rotation_from_essential,
    skew,
    symmetric_epipolar_distance,
    triangulate_dlt,
)
from .graphs import (
    TripletCover,
    ViewingGraph,
    collinearity_score,
    enrich_connectivity,
    heuristic_cover,
    insert_virtual_and_prune,
    sequential_cover,
)
from .metrics import EvalReport, align_similarity, mean_reprojection_error
from .nview import (
    ConsistencyCertificate,
    NViewBifocal,
    certify_collinear_essential,
    certify_collinear_fundamental,
    certify_general,
    check_nview_wellformed,
    svd_spectral_map,
)
from .pipeline import PipelineConfig, run_pipeline
from .recovery import (
    TripletCameras,
    pair_pose,
    recover_calibrated_collinear_triplet,
    recover_calibrated_general_triplet,
    recover_projective_collinear_triplet,
    recover_projective_general_triplet,
    register_global,
)
from .synthetic import MeasurementNoise, Scene, TrackSet, generate, measure
from .virtual import VirtualCamera, four_view_matrix, select_virtual_point, virtual_bifocals

__version__ = "0.1.0"
