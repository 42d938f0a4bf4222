"""Exception hierarchy shared across the package."""


class PolyrepError(Exception):
    """Base class for all package-specific errors."""


class GeometryError(PolyrepError):
    """Degenerate or malformed geometric input (bad indices, zero normals, ...)."""


class InvalidTransformError(GeometryError):
    """Rotation matrix is not orthonormal with determinant +1."""


class InvalidPolyhedronError(PolyrepError):
    """A polyhedron failed validation; carries the offending report."""

    def __init__(self, report):
        self.report = report
        summary = "; ".join(f"{i.code} at {i.where}" for i in report.issues[:5])
        more = "" if len(report.issues) <= 5 else f" (+{len(report.issues) - 5} more)"
        super().__init__(f"invalid polyhedron: {summary}{more}")


class GraphError(PolyrepError):
    """Surface-topology invariant violation (not one attribute row per face loop)."""


class ReconstructionError(PolyrepError):
    """Failure while rebuilding geometry from rigid path features."""


class InconsistentRigidSetError(ReconstructionError):
    """Rigid features do not describe a realizable solid (closure/conflict)."""


class IncompleteRigidSetError(ReconstructionError):
    """A tuple required by the reconstruction is missing."""


class DisconnectedSurfaceError(ReconstructionError):
    """The face adjacency graph is not connected; gluing cannot proceed."""


class DivergenceError(PolyrepError):
    """A non-finite loss or gradient in training, or a non-finite model output."""


class DataError(PolyrepError):
    """Malformed input file, schema violation, or dataset inconsistency."""


class CheckpointError(PolyrepError):
    """Checkpoint file is corrupt, truncated, or incompatible."""
