"""Training of the feature extractor by regression onto class code vectors.

Every epoch's target is the code row of its true class; Adam minimizes the
mean squared error over shuffled mini-batches. After each full pass the
validation loss and nearest-code accuracy are computed, and training stops
when the pass budget runs out or the validation loss has not improved for
``patience`` consecutive passes. The parameters from the best-validation
pass are returned, never the last ones.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .base import _check_fields, _require_aligned
from .mdn import mdn_classify
from .metrics import divergence
from .network import NetworkParams, NetworkSpec, backward, forward, init_params, mse_loss
from .walsh import WalshCodebook

__all__ = ["TrainConfig", "TrainReport", "TrainingDivergedError", "train"]

# Training data, targets and parameters are converted to this dtype, so the
# network computes in it and the returned parameters keep it.
TRAIN_DTYPE = np.float32

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; the message names the offending pass."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and stopping knobs."""

    learning_rate: float = 1e-3
    batch_size: int = 32
    max_iterations: int = 500
    patience: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.learning_rate <= 0 or self.batch_size < 1:
            raise ValueError("learning_rate and batch_size must be positive")
        if self.max_iterations < 1 or self.patience < 1:
            raise ValueError("max_iterations and patience must be >= 1")


@dataclass
class TrainReport:
    """Per-pass series plus the stopping decision and feature diagnostics.

    The divergence values are the class-separability score of the training
    set's feature vectors at initialization and under the returned (best)
    parameters; None when the score is not computable.
    """

    train_loss: list[float] = field(default_factory=list)
    validation_loss: list[float] = field(default_factory=list)
    validation_accuracy: list[float] = field(default_factory=list)
    stopped_at: int = 0
    stop_reason: str = ""
    best_iteration: int = 0
    best_validation_loss: float = float("inf")
    initial_divergence: float | None = None
    final_divergence: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


class _Adam:
    """Adam over a flat list of parameter arrays, updated in place."""

    def __init__(self, arrays: list[np.ndarray], cfg: TrainConfig):
        self.arrays = arrays
        self.learning_rate = cfg.learning_rate
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        correction1 = 1.0 - ADAM_BETA1**self.t
        correction2 = 1.0 - ADAM_BETA2**self.t
        for a, g, m, v in zip(self.arrays, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            a -= self.learning_rate * (m / correction1) / (np.sqrt(v / correction2) + ADAM_EPS)


def _as_arrays(data: tuple) -> tuple[np.ndarray, np.ndarray]:
    X, y = data
    return np.asarray(X, dtype=TRAIN_DTYPE), np.asarray(y, dtype=np.int64)


def _feature_divergence(spec, params, X, y) -> float | None:
    try:
        return divergence(forward(spec, params, X), y)
    except (ValueError, np.linalg.LinAlgError):
        return None


def _code_targets(codebook: WalshCodebook, y: np.ndarray) -> np.ndarray:
    """The code row of every label; a label outside 1..C raises ``ValueError``."""
    outside = y[(y < 1) | (y > codebook.num_classes)]
    if outside.size:
        raise ValueError(f"label {outside[0]} has no assigned code row")
    return codebook.targets[y - 1]


def train(
    spec: NetworkSpec,
    train_data: tuple,
    val_data: tuple,
    codebook: WalshCodebook,
    cfg: TrainConfig,
) -> tuple[NetworkParams, TrainReport]:
    """Fit the feature extractor to map epochs onto their class code rows.

    Parameters
    ----------
    spec : NetworkSpec
        Its flattened output size must equal the codebook size.
    train_data, val_data : (X, y) pair
        Non-empty training and validation data, one label per epoch, with
        labels in 1..``codebook.num_classes``.
    codebook : WalshCodebook
        Fixed targets; never updated by training.
    cfg : TrainConfig

    Returns
    -------
    (NetworkParams, TrainReport)
        Parameters of the best-validation-loss pass and the full series.
        Training runs in float32 (:data:`TRAIN_DTYPE`), and the returned
        parameters are float32, so the network keeps computing in it. The
        same seeds and data reproduce both bit-identically.

    Raises
    ------
    ValueError
        If a partition's epoch and label counts differ, or its epochs do not
        fit ``spec``, before any step.
    TrainingDivergedError
        If the training or validation loss becomes non-finite.
    """
    X_train, y_train = _as_arrays(train_data)
    X_val, y_val = _as_arrays(val_data)
    _require_aligned(X_train, y_train, "training")
    _require_aligned(X_val, y_val, "validation")
    if len(X_train) == 0 or len(X_val) == 0:
        raise ValueError("training and validation sets must be non-empty")
    if spec.output_dim != codebook.size:
        raise ValueError(
            f"network output dim {spec.output_dim} must equal the code size {codebook.size}"
        )
    for X in (X_train, X_val):
        spec.validate_io(X.shape[1], X.shape[2])

    targets_train = _code_targets(codebook, y_train).astype(TRAIN_DTYPE)
    targets_val = _code_targets(codebook, y_val)

    seed_root = np.random.SeedSequence(cfg.seed & 0xFFFFFFFFFFFFFFFF)
    init_seed, shuffle_seed, dropout_seed = (int(s.generate_state(1)[0]) for s in seed_root.spawn(3))
    params = init_params(spec, seed=init_seed).astype(TRAIN_DTYPE)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    dropout_rng = np.random.default_rng(dropout_seed)

    report = TrainReport()
    report.initial_divergence = _feature_divergence(spec, params, X_train, y_train)

    arrays = [getattr(bp, name) for bp in params.blocks for name in bp.trainable()]
    optimizer = _Adam(arrays, cfg)
    best_params = params.copy()
    since_improved = 0
    n = len(X_train)
    batch = min(cfg.batch_size, n)
    train_mode = "train" if batch >= 2 else "eval"

    for iteration in range(1, cfg.max_iterations + 1):
        order = shuffle_rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            mode = train_mode if len(idx) >= 2 else "eval"
            grads, loss = backward(
                spec, params, X_train[idx], targets_train[idx], mode=mode, rng=dropout_rng
            )
            total += loss * len(idx)
            flat = [g[name] for g, bp in zip(grads, params.blocks) for name in bp.trainable()]
            optimizer.step(flat)
        train_loss = total / n

        val_out = forward(spec, params, X_val)
        val_loss = mse_loss(val_out, targets_val)
        val_acc = np.mean(mdn_classify(val_out, codebook) == y_val)
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise TrainingDivergedError(f"non-finite loss at iteration {iteration}")

        report.train_loss.append(float(train_loss))
        report.validation_loss.append(float(val_loss))
        report.validation_accuracy.append(float(val_acc))
        report.stopped_at = iteration

        if val_loss < report.best_validation_loss:
            report.best_validation_loss = float(val_loss)
            report.best_iteration = iteration
            best_params = params.copy()
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= cfg.patience:
                report.stop_reason = "patience"
                break
    else:
        report.stop_reason = "max_iterations"

    report.final_divergence = _feature_divergence(spec, best_params, X_train, y_train)
    return best_params, report
