"""Exception hierarchy for colsfm.

ValidationError subclasses map to CLI exit code 2; everything else is a bug.
"""


class ColsfmError(Exception):
    """Base class for all library errors."""


class ValidationError(ColsfmError):
    """Bad or degenerate input rejected by a precondition check; `run_pipeline`
    names the stage that raised it and whether averaging had converged."""
    stage: str | None = None
    converged: bool = False


class CoincidentCenters(ValidationError):
    """Two camera centers coincide; the pairwise tensor would be zero."""


class RankDeficient(ValidationError):
    """Matrix does not have the required numerical rank."""


class DegenerateLine(ValidationError):
    """Epipolar line has vanishing image-plane part."""


class DegenerateGeometry(ValidationError):
    """Triangulation target is not uniquely determined by the rays."""


class AmbiguousCheirality(ValidationError):
    """Two pose candidates tie on positive-depth votes."""


class DuplicateEdge(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class RankNot2(ValidationError):
    """A 3x3 block violates the rank-2 requirement."""


class NotConnected(ValidationError):
    """Triplet cover dual graph is disconnected."""


class MissingBlock(ValidationError):
    """A cover edge has no measured tensor."""


class InconsistentInput(ValidationError):
    """Input matrix fails its consistency certificate."""


class CyclicInconsistency(ValidationError):
    """Pairwise rotations do not close the triplet cycle."""


class InsufficientTracks(ValidationError):
    """Too few (or degenerate) point tracks for the requested solve."""


class DegenerateEpipole(ValidationError):
    """Epipole extraction or the camera solve is rank deficient."""


class NoValidPoint(ValidationError):
    """No candidate track survives the epipole-margin filter."""


class TooFewCameras(ValidationError):
    pass


class NoTriangles(ValidationError):
    """Viewing graph contains no 3-clique."""


class Unconnectable(ValidationError):
    """No path in the full dual graph joins the cover components."""


class AlignmentIllConditioned(ValidationError):
    """Frame-alignment system is rank deficient."""


class TooFew(ValidationError):
    """Not enough correspondences for similarity alignment."""


class InvalidSceneSpec(ValidationError, ValueError):
    """A synthetic scene request no scene satisfies (layout, counts, fraction),
    or a scene camera whose intrinsics, rotation or center is malformed."""


class InvalidTracks(ValidationError, ValueError):
    """Track observations that are not (P, n, 3) points with a (P, n) mask,
    or a visible point that is not finite with last coordinate 1."""
