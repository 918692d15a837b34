"""The convolutional feature extractor: structure, parameters, and passes.

A network is an ordered stack of blocks, each running
conv -> batchnorm -> ReLU -> dropout -> maxpool (batchnorm, dropout, and
pooling optional per block); a block without dropout pools before its ReLU,
which gives the same outputs and gradients bit for bit. Structure strings
use the table syntax ``in,k,out / in,k,out / ...`` where every block is
same-padded and pooled except the last, which is valid-padded with its
kernel spanning the whole remaining length so the flattened output has
exactly ``output_dim`` values.
The final activation is a ReLU, so outputs are nonnegative and can be
regressed onto 0/1 code vectors.

A network computes in its parameters' dtype: :func:`forward` and
:func:`backward` cast their inputs and targets to it, and every output and
gradient comes back in it.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, fields

import numpy as np

from . import layers
from .base import BLOCK_EPOCHS, DocumentError, _field, _items, _object
from .walsh import WalshCodebook

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
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")

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
    output_dim: int = WalshCodebook.size,
    batch_norm: bool = ConvBlockSpec.batch_norm,
    dropout_p: float = ConvBlockSpec.dropout_p,
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

    def astype(self, dtype) -> "BlockParams":
        """A copy with every array converted to ``dtype``."""
        return BlockParams(
            **{f.name: None if (a := getattr(self, f.name)) is None else a.astype(dtype)
               for f in fields(self)}
        )

    def trainable(self) -> list[str]:
        names = ["weight", "bias"]
        if self.gamma is not None:
            names += ["gamma", "beta"]
        return names


def _pack(a: np.ndarray, dtype: np.dtype) -> str:
    """Base64 of ``a``'s little-endian ``dtype`` bytes in C order."""
    return base64.b64encode(np.asarray(a, dtype=dtype.newbyteorder("<")).tobytes()).decode("ascii")


def _json_vector(entry: dict, name: str, length: int, index: int, dtype: str, packed: bool) -> np.ndarray:
    """Field ``name`` of block ``index`` as a writable native ``(length,)``
    array: base64 of little-endian bytes when ``packed`` (format 2), else a
    list of JSON numbers (format 1). Anything else raises ``DocumentError``."""
    value = _field(entry, name, str if packed else list, f"network document layer {index + 1}")
    at = f"layer {index + 1}: {name}"
    if packed:
        try:
            raw = base64.b64decode(value, validate=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII character
            raise DocumentError(f"{at} is not valid base64: {exc}") from None
        size = length * np.dtype(dtype).itemsize
        if len(raw) != size:
            raise DocumentError(f"{at} needs {length} values ({size} bytes of {dtype}), got {len(raw)} bytes")
        return np.frombuffer(raw, dtype=np.dtype(dtype).newbyteorder("<")).astype(dtype)
    values = np.array(_items(value, float, at), dtype=dtype)
    if values.shape != (length,):
        raise DocumentError(f"{at} needs {length} values, got shape {values.shape}")
    return values


@dataclass
class NetworkParams:
    """All block parameters plus the seed they were initialized from."""

    blocks: list[BlockParams]
    init_seed: int = 0

    @property
    def dtype(self) -> np.dtype:
        """The dtype a network with these parameters computes in."""
        return self.blocks[0].weight.dtype

    def astype(self, dtype) -> "NetworkParams":
        """A copy with every array converted to ``dtype``."""
        return NetworkParams(blocks=[b.astype(dtype) for b in self.blocks], init_seed=self.init_seed)

    def copy(self) -> "NetworkParams":
        return self.astype(self.dtype)

    def to_doc(self, spec: NetworkSpec) -> dict:
        """The network document: ``format`` 2, the structure, the hidden
        blocks' batchnorm and dropout settings, dtype and every block's arrays,
        each as base64 of its little-endian ``dtype`` bytes. A spec that
        :func:`parse_structure` does not rebuild from these raises ``ValueError``."""
        hidden = spec.blocks[0]
        structure = render_structure(spec)
        if spec.blocks[-1].out_planes != spec.output_dim or spec != parse_structure(
            structure, output_dim=spec.output_dim, batch_norm=hidden.batch_norm, dropout_p=hidden.dropout_p
        ):
            raise ValueError(f"only a spec in the structure-table layout can be written, got {spec}")
        return {
            "format": 2,
            "structure": structure,
            "output_dim": spec.output_dim,
            "batch_norm": hidden.batch_norm,
            "dropout_p": hidden.dropout_p,
            "init_seed": self.init_seed,
            "dtype": self.dtype.name,
            "blocks": [
                {f.name: _pack(a, self.dtype) for f in fields(p) if (a := getattr(p, f.name)) is not None}
                for p in self.blocks
            ],
        }

    def to_json(self, spec: NetworkSpec) -> str:
        return json.dumps(self.to_doc(spec))

    @classmethod
    def from_doc(cls, doc: dict) -> tuple[NetworkSpec, "NetworkParams"]:
        """Inverse of :meth:`to_doc`: :func:`parse_structure` builds the spec.
        A missing field or one of the wrong kind, a ``format`` other than 1 or
        2, a ``dtype`` other than float32/float64, an array not encoded as its
        format says, or a block count or vector length that does not match
        the structure raises ``DocumentError``. A document without ``format``
        is format 1, whose arrays are lists of numbers; one without ``dtype``
        loads as float64. A document written with ``batch_norm``/``dropout_p``
        on every block instead of at the top loads with its first block's."""
        where = "network document"
        structure = _field(doc, "structure", str, where)
        entries = _field(doc, "blocks", list, where)
        fmt = _field(doc, "format", int, where, default=1)
        if fmt not in (1, 2):
            raise DocumentError(f"{where}: field 'format' is {fmt!r}, expected 1 or 2")
        packed = fmt == 2
        init_seed = _field(doc, "init_seed", int, where, default=0)
        dtype = _field(doc, "dtype", str, where, default="float64")
        if dtype not in ("float32", "float64"):
            raise DocumentError(f"{where}: field 'dtype' is {dtype!r}, expected 'float32' or 'float64'")
        settings, at = doc, where
        if "batch_norm" not in doc and entries and "batch_norm" in _object(entries[0], f"{where} layer 1"):
            settings, at = entries[0], f"{where} layer 1"
        spec = parse_structure(
            structure,
            output_dim=_field(doc, "output_dim", int, where),
            batch_norm=_field(settings, "batch_norm", bool, at),
            dropout_p=_field(settings, "dropout_p", float, at),
        )
        if len(spec.blocks) != len(entries):
            raise DocumentError(
                f"structure has {len(spec.blocks)} layers but the document has {len(entries)} blocks"
            )
        blocks = []
        for i, (b, entry) in enumerate(zip(spec.blocks, entries)):
            bp = BlockParams(
                weight=_json_vector(entry, "weight", b.out_planes * b.in_planes * b.kernel_size, i, dtype, packed)
                .reshape(b.out_planes, b.in_planes, b.kernel_size),
                bias=_json_vector(entry, "bias", b.out_planes, i, dtype, packed),
            )
            if b.batch_norm:
                for name in ("gamma", "beta", "running_mean", "running_var"):
                    setattr(bp, name, _json_vector(entry, name, b.out_planes, i, dtype, packed))
            blocks.append(bp)
        return spec, cls(blocks=blocks, init_seed=init_seed)

    @classmethod
    def from_json(cls, text: str) -> tuple[NetworkSpec, "NetworkParams"]:
        """Inverse of :meth:`to_json`; see :meth:`from_doc`."""
        return cls.from_doc(json.loads(text))


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


def _as_batch(x: np.ndarray, dtype: np.dtype | None) -> np.ndarray:
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 3:
        raise ValueError(f"expected a (batch, planes, length) batch, got shape {x.shape}")
    return x


def _forward_stack(
    spec: NetworkSpec,
    params: NetworkParams,
    x: np.ndarray,
    mode: str,
    rng: np.random.Generator | None,
    caches: list | None,
) -> np.ndarray:
    """One pass of a ``(batch, planes, length)`` batch through every block,
    flattened to ``(batch, output_dim)``.

    In eval mode without ``caches`` a block builds no masks: dropout is the
    identity, and it pools before its ReLU, which gives the same bits (see
    :func:`layers.maxpool`) with the ReLU on half the samples.
    """
    keep_masks = mode != "eval" or caches is not None
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
        if not keep_masks:
            if block.pool_after:
                x = layers.maxpool(x)
            x = layers.relu(x)
            continue
        # without dropout between them the ReLU commutes with the pool, bit
        # for bit and in its routed gradient, so it runs on half the samples
        pool_cache = drop_cache = None
        if block.pool_after and not block.dropout_p:
            x, pool_cache = layers.maxpool_forward(x)
        x, relu_cache = layers.relu_forward(x)
        if block.dropout_p:
            x, drop_cache = layers.dropout_forward(x, block.dropout_p, mode, rng)
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
    """Run the block stack over a ``(batch, planes, length)`` batch and
    flatten to ``(batch, output_dim)`` output vectors.

    Eval mode is a pure deterministic function of (params, input) and runs
    in blocks of at most :data:`base.BLOCK_EPOCHS` epochs, each cast to the
    params dtype on its own, so its intermediates stay small however large
    the batch, and builds none of the masks only :func:`backward` reads.
    Every layer works per epoch in eval mode, so blocking changes no value
    beyond the rounding of the BLAS kernel picked for a block's shape.
    Passing a list as ``caches`` records every stage for :func:`backward`
    in one whole-batch pass.
    """
    if mode != "eval" or caches is not None:
        return _forward_stack(spec, params, _as_batch(x, params.dtype), mode, rng, caches)
    x = _as_batch(x, None)
    n = x.shape[0]
    out = np.empty((n, spec.output_dim), dtype=params.dtype)
    for start in range(0, n, BLOCK_EPOCHS):
        block = np.asarray(x[start : start + BLOCK_EPOCHS], dtype=params.dtype)
        out[start : start + BLOCK_EPOCHS] = _forward_stack(spec, params, block, mode, rng, None)
    return out


def mse_loss(output: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error (1/M) sum (output_j - target_j)^2 of ``(batch, M)``
    outputs against their targets, meaned over the batch, in the dtype that
    numpy promotes the two to."""
    output = np.asarray(output)
    target = np.asarray(target)
    if output.ndim != 2:
        raise ValueError(f"expected (batch, M) outputs, got shape {output.shape}")
    if output.shape != target.shape:
        raise ValueError(f"length mismatch: {output.shape} vs {target.shape}")
    diff = output - target
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
    x = _as_batch(x, params.dtype)
    targets = np.asarray(targets, dtype=params.dtype)
    if targets.shape != (x.shape[0], spec.output_dim):
        raise ValueError(
            f"targets must be (batch, {spec.output_dim}), got {targets.shape}"
        )
    caches: list = []
    out = forward(spec, params, x, mode=mode, rng=rng, caches=caches)
    loss = mse_loss(out, targets)
    batch, m = out.shape
    dflat = 2.0 * (out - targets) / (m * batch)

    final_block = spec.blocks[-1]
    final_len = spec.output_dim // final_block.out_planes
    dx = dflat.reshape(batch, final_block.out_planes, final_len)

    grads: list[dict] = [{} for _ in spec.blocks]
    for i in range(len(spec.blocks) - 1, -1, -1):
        conv_cache, bn_cache, relu_cache, drop_cache, pool_cache = caches[i]
        pool_first = not spec.blocks[i].dropout_p
        if pool_cache is not None and not pool_first:
            dx = layers.maxpool_backward(dx, pool_cache)
        dx = layers.dropout_backward(dx, drop_cache)
        dx = layers.relu_backward(dx, relu_cache)
        if pool_cache is not None and pool_first:
            dx = layers.maxpool_backward(dx, pool_cache)
        if bn_cache is not None:
            dx, dgamma, dbeta = layers.batchnorm_backward(dx, bn_cache)
            grads[i]["gamma"] = dgamma
            grads[i]["beta"] = dbeta
        dx, dw, db = layers.conv1d_backward(dx, conv_cache, need_dx=i > 0)
        grads[i]["weight"] = dw
        grads[i]["bias"] = db
    return grads, loss
