"""Motor-imagery EEG classification toolkit.

Library + CLI covering the full pipeline: epoch containers and file I/O, a
five-step training-set augmentation, an optional filter-bank + CSP
transform, a from-scratch 1D CNN trained by regression onto Walsh code
rows, a fixed minimum-distance classifier, evaluation metrics and
statistics, and a transform x augmentation experiment runner.
"""

from ._version import __version__
from .augment import (
    AugmentConfig,
    EpochAugmenter,
    augment_epoch,
    augment_set,
    noise_inject,
    polarity_invert,
    random_scale,
    time_rotate,
    zero_mean,
)
from .bandpass import (
    DEFAULT_BANDS,
    FilterBankSpec,
    apply_filter_bank_set,
    design_bandpass,
    zero_phase_bandpass,
)
from .base import DocumentError, EstimatorMixin, NotFittedError
from .csp import CspModel, CspTransformer, apply_csp_set, fit_csp
from .epochs import EpochSet, Split, SplitSpec, derive_seed, split_dataset
from .experiment import (
    ExperimentPlan,
    ExperimentReport,
    LeakageError,
    MatrixReport,
    RunResult,
    compare_augmentation,
    run_experiment,
    run_matrix,
)
from .io import EpochFormatError, load_epochs, save_epochs
from .mdn import (
    MetaScheme,
    SchemeMember,
    mdn_classify,
    mdn_distances,
    scheme_predict,
)
from .metrics import (
    ClasswiseReport,
    ConfusionMatrix,
    classwise_metrics,
    confusion,
    divergence,
    kappa_balanced,
)
from .model import WalshCnnClassifier, default_structure
from .network import (
    ConvBlockSpec,
    NetworkParams,
    NetworkSpec,
    backward,
    count_weights,
    forward,
    init_params,
    mse_loss,
    parse_structure,
    render_structure,
)
from .stats import TTestResult, paired_ttest, student_t_two_tailed_p
from .synthetic import SyntheticSpec, generate_synthetic
from .training import TrainConfig, TrainingDivergedError, TrainReport, train
from .walsh import WalshCodebook, build_walsh, hamming

__all__ = [
    "__version__",
    # data model
    "EpochSet", "Split", "SplitSpec", "split_dataset", "derive_seed",
    "EpochFormatError", "load_epochs", "save_epochs",
    "SyntheticSpec", "generate_synthetic",
    # augmentation
    "AugmentConfig", "EpochAugmenter", "zero_mean", "random_scale",
    "polarity_invert", "time_rotate", "noise_inject", "augment_epoch", "augment_set",
    # preprocessing
    "DEFAULT_BANDS", "FilterBankSpec", "design_bandpass", "zero_phase_bandpass",
    "apply_filter_bank_set",
    "CspModel", "CspTransformer", "fit_csp", "apply_csp_set",
    # codes and network
    "WalshCodebook", "build_walsh", "hamming",
    "ConvBlockSpec", "NetworkSpec", "NetworkParams", "parse_structure",
    "render_structure", "count_weights", "init_params", "forward", "mse_loss", "backward",
    "TrainConfig", "TrainReport", "TrainingDivergedError", "train",
    # classification
    "MetaScheme", "SchemeMember", "mdn_distances", "mdn_classify",
    "scheme_predict", "WalshCnnClassifier", "default_structure",
    # metrics and statistics
    "ConfusionMatrix", "ClasswiseReport", "confusion", "classwise_metrics",
    "kappa_balanced", "divergence",
    "TTestResult", "paired_ttest", "student_t_two_tailed_p",
    # experiments
    "ExperimentPlan", "ExperimentReport", "RunResult", "MatrixReport", "LeakageError",
    "run_experiment", "run_matrix", "compare_augmentation",
    # plumbing
    "DocumentError", "EstimatorMixin", "NotFittedError",
]
