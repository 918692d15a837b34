"""The convolutional feature extractor: structure, parameters, and passes.

A network is an ordered stack of blocks, each running
conv -> batchnorm -> ReLU -> dropout -> maxpool (batchnorm, dropout, and
pooling optional per block). Structure strings use the table syntax
``in,k,out / in,k,out / ...`` where every block is same-padded and pooled
except the last, which is valid-padded with its kernel spanning the whole
remaining length so the flattened output has exactly ``output_dim`` values.
The final activation is a ReLU, so outputs are nonnegative and can be
regressed onto 0/1 code vectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import layers

__all__ = [
    "ConvBlockSpec",
    "NetworkSpec",
    "BlockParams",
    "NetworkParams",
    "parse_structure",
    "render_structure",
    "count_weights",
    "init_params",
    "forward",
    "mse_loss",
    "backward",
]


@dataclass(frozen=True)
class ConvBlockSpec:
    """One conv block: kernel geometry plus the optional stages around it."""

    in_planes: int
    kernel_size: int
    out_planes: int
    padding: str = "same"
    pool_after: bool = True
    batch_norm: bool = True
    dropout_p: float = 0.5

    def __post_init__(self) -> None:
        if min(self.in_planes, self.kernel_size, self.out_planes) < 1:
            raise ValueError("plane counts and kernel size must be >= 1")
        if self.padding not in ("same", "valid"):
            raise ValueError(f"unknown padding {self.padding!r}")
        if not 0 <= self.dropout_p < 1:
            raise ValueError("dropout_p must be in [0, 1)")

    def out_length(self, length: int) -> int:
        if self.padding == "valid":
            if length < self.kernel_size:
                raise ValueError(
                    f"valid conv with kernel {self.kernel_size} needs length >= kernel, got {length}"
                )
            length = length - self.kernel_size + 1
        if self.pool_after:
            length = -(-length // 2)
        return length


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered block stack whose flattened output must have output_dim values."""

    blocks: tuple[ConvBlockSpec, ...]
    output_dim: int

    def __post_init__(self) -> None:
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("a network needs at least one block")
        for i in range(1, len(blocks)):
            if blocks[i].in_planes != blocks[i - 1].out_planes:
                raise ValueError(
                    f"plane chain broken between layer {i} ({blocks[i - 1].out_planes} out) "
                    f"and layer {i + 1} ({blocks[i].in_planes} in)"
                )
        object.__setattr__(self, "blocks", blocks)

    @property
    def input_planes(self) -> int:
        return self.blocks[0].in_planes

    def flatten_length(self, input_length: int) -> int:
        """Temporal length after all blocks, starting from input_length."""
        length = input_length
        for block in self.blocks:
            length = block.out_length(length)
        return length

    def validate_io(self, input_channels: int, input_length: int) -> None:
        """Check this structure against concrete input dimensions."""
        if self.input_planes != input_channels:
            raise ValueError(
                f"first layer expects {self.input_planes} input channels, data has {input_channels}"
            )
        final_length = self.flatten_length(input_length)
        flat = final_length * self.blocks[-1].out_planes
        if flat != self.output_dim:
            raise ValueError(
                f"flatten length {flat} (= {self.blocks[-1].out_planes} planes x "
                f"{final_length} samples) does not equal output_dim {self.output_dim}"
            )


def _parse_triples(text: str) -> list[tuple[int, int, int]]:
    """Split structure-table text into its (in, kernel, out) integer triples.

    Rows are separated by slashes or newlines; values within a row by
    commas or spaces. A row that is not three integers raises
    ``ValueError`` naming its 1-based layer number.
    """
    rows = [r for r in text.replace("\n", "/").split("/") if r.strip()]
    if not rows:
        raise ValueError("empty structure string")
    triples = []
    for i, row in enumerate(rows):
        parts = row.replace(",", " ").split()
        if len(parts) != 3:
            raise ValueError(f"layer {i + 1} is not an in,kernel,out triple: {row.strip()!r}")
        try:
            triples.append(tuple(int(p) for p in parts))
        except ValueError:
            raise ValueError(f"layer {i + 1} has a non-integer value: {row.strip()!r}") from None
    return triples


def parse_structure(
    text: str,
    input_channels: int | None = None,
    input_length: int | None = None,
    output_dim: int = 16,
    batch_norm: bool = True,
    dropout_p: float = 0.5,
) -> NetworkSpec:
    """Parse a structure-table row like ``"2,7,40 / 40,7,40 / 40,16,16"``.

    Triples are (input planes, kernel size, feature planes), separated by
    slashes or newlines; values within a triple may be comma- or
    space-separated. Every block is same-padded with pooling except the
    final one, which is valid-padded without pooling and must shrink the
    temporal length to exactly 1, making the flattened output equal its
    plane count. When ``input_channels``/``input_length`` are given the
    chain is validated against them.
    """
    triples = _parse_triples(text)
    blocks = []
    for i, (in_p, k, out_p) in enumerate(triples):
        last = i == len(triples) - 1
        blocks.append(
            ConvBlockSpec(
                in_planes=in_p,
                kernel_size=k,
                out_planes=out_p,
                padding="valid" if last else "same",
                pool_after=not last,
                batch_norm=batch_norm and not last,
                dropout_p=0.0 if last else dropout_p,
            )
        )
    spec = NetworkSpec(blocks=tuple(blocks), output_dim=output_dim)

    final = spec.blocks[-1]
    if final.out_planes != output_dim:
        raise ValueError(
            f"final layer has {final.out_planes} planes; flatten cannot equal output_dim "
            f"{output_dim} when the last valid conv reduces the length to 1"
        )
    if input_channels is not None and spec.input_planes != input_channels:
        raise ValueError(
            f"structure expects {spec.input_planes} input channels, data has {input_channels}"
        )
    if input_length is not None:
        length = input_length
        for block in spec.blocks[:-1]:
            length = block.out_length(length)
        if final.kernel_size != length:
            raise ValueError(
                f"final valid kernel {final.kernel_size} must equal the remaining length "
                f"{length} to reduce the temporal dimension to 1"
            )
    return spec


def render_structure(spec: NetworkSpec) -> str:
    """Inverse of :func:`parse_structure` for specs in the table layout."""
    return " / ".join(f"{b.in_planes},{b.kernel_size},{b.out_planes}" for b in spec.blocks)


def count_weights(
    spec: "NetworkSpec | list[tuple[int, int, int]]",
    num_classes: int = 0,
    output_dim: int | None = None,
) -> int:
    """Multiplicative weight count: sum of in*k*out over layers, plus the
    fixed code-matching layer's output_dim*num_classes when a class count is
    given. Biases and normalization parameters are excluded. Raw triples are
    accepted so stacks with 2-D kernels can be counted with k set to the
    kernel area.
    """
    if isinstance(spec, NetworkSpec):
        triples = [(b.in_planes, b.kernel_size, b.out_planes) for b in spec.blocks]
        output_dim = spec.output_dim
    else:
        triples = [tuple(t) for t in spec]
    total = sum(a * k * o for a, k, o in triples)
    if num_classes:
        if output_dim is None:
            raise ValueError("counting the classifier layer needs output_dim")
        total += output_dim * num_classes
    return total


@dataclass
class BlockParams:
    """Trainable tensors of one block (batchnorm buffers included)."""

    weight: np.ndarray
    bias: np.ndarray
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None
    running_mean: np.ndarray | None = None
    running_var: np.ndarray | None = None

    def copy(self) -> "BlockParams":
        return BlockParams(
            weight=self.weight.copy(),
            bias=self.bias.copy(),
            gamma=None if self.gamma is None else self.gamma.copy(),
            beta=None if self.beta is None else self.beta.copy(),
            running_mean=None if self.running_mean is None else self.running_mean.copy(),
            running_var=None if self.running_var is None else self.running_var.copy(),
        )

    def trainable(self) -> list[str]:
        names = ["weight", "bias"]
        if self.gamma is not None:
            names += ["gamma", "beta"]
        return names


def _json_vector(entry: dict, name: str, length: int, index: int) -> np.ndarray:
    values = np.array(entry.get(name, []), dtype=np.float64)
    if values.shape != (length,):
        raise ValueError(f"layer {index + 1}: {name} needs {length} values, got shape {values.shape}")
    return values


@dataclass
class NetworkParams:
    """All block parameters plus the seed they were initialized from."""

    blocks: list[BlockParams]
    init_seed: int = 0

    def copy(self) -> "NetworkParams":
        return NetworkParams(blocks=[b.copy() for b in self.blocks], init_seed=self.init_seed)

    def to_json(self, spec: NetworkSpec) -> str:
        doc = {
            "structure": render_structure(spec),
            "output_dim": spec.output_dim,
            "init_seed": self.init_seed,
            "blocks": [],
        }
        for block_spec, p in zip(spec.blocks, self.blocks):
            entry = {
                "padding": block_spec.padding,
                "pool_after": block_spec.pool_after,
                "batch_norm": block_spec.batch_norm,
                "dropout_p": block_spec.dropout_p,
                "weight": p.weight.ravel().tolist(),
                "bias": p.bias.tolist(),
            }
            if p.gamma is not None:
                entry["gamma"] = p.gamma.tolist()
                entry["beta"] = p.beta.tolist()
                entry["running_mean"] = p.running_mean.tolist()
                entry["running_var"] = p.running_var.tolist()
            doc["blocks"].append(entry)
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> tuple[NetworkSpec, "NetworkParams"]:
        """Inverse of :meth:`to_json`; a block count or vector length that
        does not match the structure raises ``ValueError``."""
        doc = json.loads(text)
        triples = _parse_triples(doc["structure"])
        if len(triples) != len(doc["blocks"]):
            raise ValueError(
                f"structure has {len(triples)} layers but the document has {len(doc['blocks'])} blocks"
            )
        blocks_spec = []
        blocks_params = []
        for i, ((in_p, k, out_p), entry) in enumerate(zip(triples, doc["blocks"])):
            blocks_spec.append(
                ConvBlockSpec(
                    in_planes=in_p,
                    kernel_size=k,
                    out_planes=out_p,
                    padding=entry["padding"],
                    pool_after=entry["pool_after"],
                    batch_norm=entry["batch_norm"],
                    dropout_p=entry["dropout_p"],
                )
            )
            bp = BlockParams(
                weight=_json_vector(entry, "weight", out_p * in_p * k, i).reshape(out_p, in_p, k),
                bias=_json_vector(entry, "bias", out_p, i),
            )
            if entry["batch_norm"]:
                bp.gamma = _json_vector(entry, "gamma", out_p, i)
                bp.beta = _json_vector(entry, "beta", out_p, i)
                bp.running_mean = _json_vector(entry, "running_mean", out_p, i)
                bp.running_var = _json_vector(entry, "running_var", out_p, i)
            blocks_params.append(bp)
        spec = NetworkSpec(blocks=tuple(blocks_spec), output_dim=doc["output_dim"])
        return spec, cls(blocks=blocks_params, init_seed=doc.get("init_seed", 0))


def init_params(spec: NetworkSpec, seed: int = 0) -> NetworkParams:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) kernel init, zero biases."""
    rng = np.random.default_rng(seed)
    blocks = []
    for b in spec.blocks:
        fan_in = b.in_planes * b.kernel_size
        fan_out = b.out_planes * b.kernel_size
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        bp = BlockParams(
            weight=rng.uniform(-bound, bound, size=(b.out_planes, b.in_planes, b.kernel_size)),
            bias=np.zeros(b.out_planes),
        )
        if b.batch_norm:
            bp.gamma = np.ones(b.out_planes)
            bp.beta = np.zeros(b.out_planes)
            bp.running_mean = np.zeros(b.out_planes)
            bp.running_var = np.ones(b.out_planes)
        blocks.append(bp)
    return NetworkParams(blocks=blocks, init_seed=seed)


# Epochs per eval-mode forward block. Every layer works per epoch in eval
# mode, so blocking changes no value beyond the rounding of the BLAS kernel
# picked for a block's shape; it bounds the conv window copies (for the
# paper-scale net, 128 x 126 x 40 x 7 float64 is about 36 MB per block).
EVAL_BLOCK_EPOCHS = 128


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        return x[None], True
    if x.ndim == 3:
        return x, False
    raise ValueError(f"expected (planes, length) or (batch, planes, length), got {x.shape}")


def _forward_stack(
    spec: NetworkSpec,
    params: NetworkParams,
    x: np.ndarray,
    mode: str,
    rng: np.random.Generator | None,
    caches: list | None,
) -> np.ndarray:
    """One pass of a ``(batch, planes, length)`` batch through every block,
    flattened to ``(batch, output_dim)``."""
    for i, (block, p) in enumerate(zip(spec.blocks, params.blocks)):
        if x.shape[1] != block.in_planes:
            raise ValueError(
                f"layer {i + 1}: input has {x.shape[1]} planes, block expects {block.in_planes}"
            )
        try:
            x, conv_cache = layers.conv1d_forward(x, p.weight, p.bias, block.padding)
        except ValueError as exc:
            raise ValueError(f"layer {i + 1}: {exc}") from None
        bn_cache = None
        if block.batch_norm:
            x, bn_cache = layers.batchnorm_forward(
                x, p.gamma, p.beta, p.running_mean, p.running_var, mode
            )
        x, relu_cache = layers.relu_forward(x)
        drop_cache = None
        if block.dropout_p:
            x, drop_cache = layers.dropout_forward(x, block.dropout_p, mode, rng)
        pool_cache = None
        if block.pool_after:
            x, pool_cache = layers.maxpool_forward(x)
        if caches is not None:
            caches.append((conv_cache, bn_cache, relu_cache, drop_cache, pool_cache))
    out = x.reshape(x.shape[0], -1)
    if out.shape[1] != spec.output_dim:
        raise ValueError(
            f"flattened output has {out.shape[1]} values, spec says {spec.output_dim}; "
            "check the structure against the input length"
        )
    return out


def forward(
    spec: NetworkSpec,
    params: NetworkParams,
    x: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    caches: list | None = None,
) -> np.ndarray:
    """Run the block stack and flatten to the output vector(s).

    A single ``(planes, length)`` epoch yields an ``(output_dim,)`` vector; a
    batch yields ``(batch, output_dim)``. Eval mode is a pure deterministic
    function of (params, input) and runs in blocks of at most
    :data:`EVAL_BLOCK_EPOCHS` epochs, so its intermediates stay small however
    large the batch. Passing a list as ``caches`` records every stage for
    :func:`backward` in one whole-batch pass.
    """
    x, single = _as_batch(x)
    if mode == "eval" and caches is None:
        n = x.shape[0]
        out = np.empty((n, spec.output_dim))
        for start in range(0, n, EVAL_BLOCK_EPOCHS):
            stop = start + EVAL_BLOCK_EPOCHS
            out[start:stop] = _forward_stack(spec, params, x[start:stop], mode, rng, None)
    else:
        out = _forward_stack(spec, params, x, mode, rng, caches)
    return out[0] if single else out


def mse_loss(output: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error (1/M) sum (output_j - target_j)^2, meaned over a batch."""
    output = np.asarray(output, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if output.shape != target.shape:
        raise ValueError(f"length mismatch: {output.shape} vs {target.shape}")
    diff = output - target
    if diff.ndim == 1:
        return float(np.mean(diff * diff))
    return float(np.mean(np.sum(diff * diff, axis=1) / diff.shape[1]))


def backward(
    spec: NetworkSpec,
    params: NetworkParams,
    x: np.ndarray,
    targets: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[list[dict], float]:
    """Gradients of the mean batch MSE with respect to every parameter.

    Returns one dict per block with the same array shapes as the parameters
    (``gamma``/``beta`` entries only where the block has batchnorm), plus the
    loss at the evaluated point.
    """
    x, _ = _as_batch(x)
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if targets.shape != (x.shape[0], spec.output_dim):
        raise ValueError(
            f"targets must be (batch, {spec.output_dim}), got {targets.shape}"
        )
    caches: list = []
    out = forward(spec, params, x, mode=mode, rng=rng, caches=caches)
    out = np.atleast_2d(out)
    batch, m = out.shape
    diff = out - targets
    loss = float(np.mean(np.sum(diff * diff, axis=1) / m))
    dflat = 2.0 * diff / (m * batch)

    final_block = spec.blocks[-1]
    final_len = spec.output_dim // final_block.out_planes
    dx = dflat.reshape(batch, final_block.out_planes, final_len)

    grads: list[dict] = [{} for _ in spec.blocks]
    for i in range(len(spec.blocks) - 1, -1, -1):
        conv_cache, bn_cache, relu_cache, drop_cache, pool_cache = caches[i]
        if pool_cache is not None:
            dx = layers.maxpool_backward(dx, pool_cache)
        dx = layers.dropout_backward(dx, drop_cache)
        dx = layers.relu_backward(dx, relu_cache)
        if bn_cache is not None:
            dx, dgamma, dbeta = layers.batchnorm_backward(dx, bn_cache)
            grads[i]["gamma"] = dgamma
            grads[i]["beta"] = dbeta
        dx, dw, db = layers.conv1d_backward(dx, conv_cache)
        grads[i]["weight"] = dw
        grads[i]["bias"] = db
    return grads, loss
