"""Cancelable biometric templates from fixed-filter convolutional features.

The pipeline: a five-stage convolutional extractor whose filter banks are
fixed difference/ternary kernels (only 1x1 channel mixers and the dense
head train), followed by keyed orthonormal random projection and sign
quantization.  Templates are revocable by reissuing the key; the biometric
itself never leaves the feature extractor.
"""

from .corpus import (
    AugmentationSpec,
    DatasetLayout,
    SyntheticSpec,
    augment,
    generate_synthetic,
    ingest,
    load_samples,
)
from .enrollment import (
    MODALITIES,
    LogicalClock,
    TemplateVault,
    VerificationDecision,
    fuse_features,
    wall_clock,
)
from .evaluation import (
    MetricsReport,
    ScoreSet,
    crr_rank1,
    decidability_index,
    eer,
    export_roc,
    far_frr,
    run_protocol,
)
from .filters import (
    GapFilterSpec,
    LbcFilterSpec,
    make_gap_filters,
    make_layer_bank,
    make_lbc_filters,
)
from .hashing import (
    BIT_LENGTHS,
    CancelableTemplate,
    ProjectionBasis,
    UserKey,
    binarize,
    generate_random_vectors,
    hash_features,
    orthonormalize,
    project,
    template_distance,
)
from .network import EpochStats, FixedFilterNet, NetworkConfig, TrainConfig, train
from .pipeline import ProtocolRun, evaluate_fused, evaluate_split, split_gallery_probe

__version__ = "0.1.0"

__all__ = [
    "AugmentationSpec",
    "BIT_LENGTHS",
    "CancelableTemplate",
    "DatasetLayout",
    "EpochStats",
    "FixedFilterNet",
    "GapFilterSpec",
    "LbcFilterSpec",
    "LogicalClock",
    "MODALITIES",
    "MetricsReport",
    "NetworkConfig",
    "ProjectionBasis",
    "ProtocolRun",
    "ScoreSet",
    "SyntheticSpec",
    "TemplateVault",
    "TrainConfig",
    "UserKey",
    "VerificationDecision",
    "augment",
    "binarize",
    "crr_rank1",
    "decidability_index",
    "eer",
    "evaluate_fused",
    "evaluate_split",
    "export_roc",
    "far_frr",
    "fuse_features",
    "generate_random_vectors",
    "generate_synthetic",
    "hash_features",
    "ingest",
    "load_samples",
    "make_gap_filters",
    "make_layer_bank",
    "make_lbc_filters",
    "orthonormalize",
    "project",
    "run_protocol",
    "split_gallery_probe",
    "template_distance",
    "train",
    "wall_clock",
    "__version__",
]
