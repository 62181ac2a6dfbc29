"""Finite frame and fusion frame analysis.

Frame bounds, pointwise redundancy and its extremes, canonical and
alternate duals, erasure robustness, excess, and local-frame systems,
with a JSON document format and a command-line driver.
"""

__version__ = "0.1.0"

from .errors import FrameError
from .numerics import DEFAULT_TOLERANCE, FrameBounds, Tolerance
from .vector_frames import (
    VectorFrame,
    VectorFrameReport,
    alternate_dual,
    analyze_vector_frame,
    canonical_dual,
    check_norm_inequality,
    dual_redundancy_sandwich,
)
from .fusion import (
    AnalysisReport,
    ErasureCertificate,
    FusionFrame,
    apply_operator,
    build_fusion_frame,
    classify,
    erase,
    erasure_certificate,
    excess,
    frame_bounds,
    fusion_frame_operator,
    redundancy_at,
    redundancy_equivalent,
    redundancy_range,
    synthesis_matrix,
    union,
    verify_projection_decomposition,
)
from .duality import (
    DualCertificate,
    alternate_dual_bounds,
    canonical_dual_fusion,
    canonical_ratio_bounds,
    verify_alternate_dual,
)
from .systems import (
    FusionFrameSystem,
    build_system,
    check_local_additivity,
    parseval_equivalences,
    redundancy_one_equivalence,
)
from .documents import FrameDocument, ReportDocument, emit_example, load_frame
from .gallery import EXAMPLE_NAMES, example_frame

__all__ = [
    "AnalysisReport",
    "DualCertificate",
    "DEFAULT_TOLERANCE",
    "ErasureCertificate",
    "EXAMPLE_NAMES",
    "FrameBounds",
    "FrameDocument",
    "FrameError",
    "FusionFrame",
    "FusionFrameSystem",
    "ReportDocument",
    "Tolerance",
    "VectorFrame",
    "VectorFrameReport",
    "alternate_dual",
    "alternate_dual_bounds",
    "analyze_vector_frame",
    "apply_operator",
    "build_fusion_frame",
    "build_system",
    "canonical_dual",
    "canonical_dual_fusion",
    "canonical_ratio_bounds",
    "check_local_additivity",
    "check_norm_inequality",
    "classify",
    "dual_redundancy_sandwich",
    "emit_example",
    "erase",
    "erasure_certificate",
    "example_frame",
    "excess",
    "frame_bounds",
    "fusion_frame_operator",
    "load_frame",
    "parseval_equivalences",
    "redundancy_at",
    "redundancy_equivalent",
    "redundancy_one_equivalence",
    "redundancy_range",
    "synthesis_matrix",
    "union",
    "verify_alternate_dual",
    "verify_projection_decomposition",
]
