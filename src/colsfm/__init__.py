"""Bifocal tensor averaging and camera recovery for collinear camera networks."""

from .averaging import (
    AveragingResult,
    average,
    project,
)
from .geometry import (
    CameraModel,
    bifocal_from_pair,
    skew,
    symmetric_epipolar_distance,
    triangulate,
)
from .graphs import (
    TripletCover,
    collinearity_score,
    enrich_connectivity,
    heuristic_cover,
    insert_virtual_and_prune,
    sequential_cover,
    triangles,
)
from .metrics import EvalReport, align_similarity, mean_reprojection_error
from .nview import (
    ConsistencyCertificate,
    NViewBifocal,
    certify_collinear_essential,
    certify_collinear_fundamental,
    certify_general,
)
from .pipeline import PipelineConfig, run_pipeline
from .recovery import (
    pair_poses,
    recover_calibrated_collinear_triplet,
    recover_calibrated_general_triplet,
    recover_projective_collinear_triplet,
    recover_projective_general_triplet,
    register_global,
)
from .synthetic import MeasurementNoise, Scene, TrackSet, generate, measure
from .virtual import select_virtual_point, virtual_bifocals

__version__ = "0.1.0"
