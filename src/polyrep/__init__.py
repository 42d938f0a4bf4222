"""Rigid-motion-invariant representation learning for attributed polyhedra.

Pipeline: polyhedra become directed surface graphs whose faces are ordered
edge loops with attribute vectors; every two-hop path yields a five-tuple of
rotation/translation-invariant rigid features that determines the solid up
to rigid motion; a heterogeneous message-passing network aggregates the
tuples into graph embeddings for classification and retrieval.
"""

from .errors import (
    CheckpointError,
    DataError,
    DisconnectedSurfaceError,
    GeometryError,
    GraphError,
    IncompleteRigidSetError,
    InconsistentRigidSetError,
    InvalidPolyhedronError,
    InvalidTransformError,
    PolyrepError,
    ReconstructionError,
)
from .geometry import (
    ColorScheme,
    PolygonFace,
    Polyhedron,
    RigidTransform,
    ValidationIssue,
    ValidationReport,
    apply_rigid_transform,
    extrude_polygon,
    face_area,
    face_normal,
    kabsch_align,
    rotation_about_axis,
    sample_random_rotation,
    validate_polyhedron,
)
from .surface_graph import SurfaceGraph, SurfaceTopology, build_surface_graph
from .rigid_features import (
    PathSet,
    RigidSet,
    RigidTuple,
    compute_rigid_set,
    enumerate_paths,
    read_rigid_set,
    reconstruct_face,
    reconstruct_polyhedron,
    rigid_sets_equal,
    signed_dihedral_angle,
    signed_planar_angle,
    write_rigid_set,
)
from .model import (
    EmbeddingOutput,
    GnnConfig,
    GnnParams,
    GraphBatch,
    GraphFeatures,
    collate,
    embed_graph,
    gnn_forward,
    gnn_train_step,
    mask_attributes,
    precompute_graph_features,
)
from .datasets import (
    PolyhedronRecord,
    Rejected,
    TriangleMesh,
    build_extrusion_dataset,
    color_coded_cube_dataset,
    decode_record,
    encode_polyhedron,
    encode_record,
    import_obj,
    load_records,
    merge_coplanar_faces,
    parse_mtl,
    save_manifest,
    save_records,
    split_dataset,
    synthetic_dataset,
    synthetic_solid,
    triangulate,
)
from .metrics import (
    ClassificationMetrics,
    RetrievalMetrics,
    classification_metrics,
    retrieval_metrics,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .training import (
    TrainConfig,
    TrainResult,
    evaluate_classification,
    evaluate_retrieval,
    train,
)

__version__ = "0.1.0"
