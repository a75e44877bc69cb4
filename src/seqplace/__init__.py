"""Sequence-based visual place recognition toolkit.

Matches a query traversal of a route against a previously recorded
reference traversal, per frame, using either heuristic sequence matching
(difference-matrix velocity search), condition-invariant descriptor
differencing, or a trainable LSTM over descriptor+position windows, and
evaluates everything under one tolerance-based precision-recall protocol.
"""

from .dataset import (
    DescriptorFileError,
    DescriptorSequence,
    MatchReport,
    PositionTrack,
    SequenceWindow,
    Traversal,
    load_descriptor_file,
    load_positions_file,
    make_windows,
    normalize_positions,
    position_bounds,
    save_descriptor_file,
    save_positions_file,
)
from .descriptors import (
    DeltaConfig,
    ThumbnailConfig,
    delta_transform,
    l2_normalize,
    read_pgm,
    thumbnail_descriptor,
)
from .matching_classic import (
    DifferenceMatrix,
    SeqSlamConfig,
    contrast_enhance,
    delta_match,
    difference_matrix,
    nearest_neighbor_match,
    seqslam_search,
    velocity_grid,
)
from .neural import (
    AdamState,
    HeadParams,
    LstmParams,
    SequenceModel,
    TrainingCurves,
    TrainingError,
    adam_init,
    adam_step,
    cross_entropy_loss,
    infer,
    init_model,
    load_checkpoint,
    lstm_forward,
    model_backward,
    model_forward,
    save_checkpoint,
    train,
)
from .evaluation import (
    BenchResult,
    Method,
    PRCurve,
    SweepCell,
    benchmark,
    deep_method,
    delta_method,
    ds_sweep,
    is_correct,
    pr_curve,
    seqslam_method,
    tolerance_for,
)
from .rng import ALGORITHM_ID, RandomStream
from .synthetic import SynthConfig, SynthPair, generate, generate_revisit, write_dataset

__version__ = "0.1.0"
