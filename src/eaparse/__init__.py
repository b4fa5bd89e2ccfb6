"""Face-parsing post-processing toolkit.

Numpy-based building blocks for the stages that surround a parsing network:
byte-deterministic raster/tensor formats, boundary attention masks, losses
with closed-form gradients, symmetry-aware augmentations, ROI geometry,
probability-space ensembling, GrabCut refinement and J/F evaluation. The
same operations are exposed on files through the ``eaparse`` executable.
"""

from .augment import SwapTable, cut_half, hflip_with_swap, rotate_quarter
from .boundary import (
    DEFAULT_EDGE_RADIUS,
    dilate_mask,
    disk_offsets,
    edge_attention_mask,
    erode_mask,
    extract_boundary,
)
from .ensemble import (
    ensemble_argmax,
    ensemble_probabilities,
    resize_bilinear,
    softmax_map,
)
from .errors import *  # noqa: F401,F403 - the exception vocabulary is the API
from .grabcut import (
    ColorGmm,
    GrabcutParams,
    GridGraph,
    Trimap,
    build_trimap,
    fit_gmm,
    grabcut_refine,
    max_flow,
    refine_class,
)
from .metrics import (
    ClassScore,
    EvalReport,
    boundary_f,
    default_tolerance,
    evaluate_frames,
    region_jaccard,
)
from .roi import DEFAULT_EXPAND_RATIO, Box, crop, expand_box, fuse_frame, paste
from .segloss import (
    LossResult,
    LossWeights,
    boundary_bce,
    edge_attention_loss,
    softmax_cross_entropy,
    total_loss,
)
from .tensorio import (
    ensure_binary_mask,
    ensure_label_map,
    ensure_logits,
    ensure_rgb_image,
    read_label_map,
    read_logits,
    read_rgb_image,
    write_label_map,
    write_logits,
    write_rgb_image,
)

__version__ = "0.1.0"
