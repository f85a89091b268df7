"""Declarative construction of the three modality pathways and shared trunk.

Each modality (image, sound, text) has its own convolutional pathway ending in
a fixed-length bottleneck vector; all pathways share the same fully connected
trunk (two hidden layers, then a softmax output). ``default_paper_spec`` is
the full-scale architecture; ``desk_spec`` narrows filter counts and widths
proportionally so the whole pipeline runs on one CPU core.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from typing import ClassVar, get_args

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import MODALITIES
from .errors import ConfigError, ShapeError

TAP_NAMES = ("bottleneck", "shared1", "shared2", "softmax")


class _Layer:
    """A layer spec: its JSON ``tag``, the input ``rank`` it needs (0: any),
    the ``group`` whose counter names its parameters (None: it has none), its
    output shape, its parameter shapes in order, and how it is applied to a
    batch with those parameters as arguments. Every field is a positive int.
    """

    tag: ClassVar[str]
    rank: ClassVar[int] = 0
    group: ClassVar[str | None] = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int or value < 1:
                raise ConfigError(
                    f"{self.tag} layer: {f.name} must be a positive integer, got {value!r}")

    def param_shapes(self, in_shape: tuple[int, ...]) -> dict[str, tuple[int, ...]]:
        return {}

    def to_json(self) -> dict:
        return {"type": self.tag, **asdict(self)}


@dataclass(frozen=True)
class Conv1dSpec(_Layer):
    kernel: int
    filters: int
    tag = "conv1d"
    rank = 2
    group = "conv"

    def out_shape(self, shape):
        return (self.filters, shape[1])

    def param_shapes(self, in_shape):
        return {"kernels": (self.filters, in_shape[0], self.kernel), "bias": (self.filters,)}

    def apply(self, x, kernels, bias):
        return ad.relu(ad.conv1d_same(x, kernels, bias))


@dataclass(frozen=True)
class Pool1dSpec(_Layer):
    """Max-pooling over time by ``factor``; a partial last window is kept."""

    factor: int
    tag = "pool1d"
    rank = 2

    def out_shape(self, shape):
        return (shape[0], -(-shape[1] // self.factor))

    def apply(self, x):
        return ad.maxpool1d(x, self.factor)


@dataclass(frozen=True)
class Conv2dSpec(_Layer):
    kernel: int
    filters: int
    stride: int = 1
    tag = "conv2d"
    rank = 3
    group = "conv"

    def out_shape(self, shape):
        return (self.filters,
                (shape[1] - 1) // self.stride + 1,
                (shape[2] - 1) // self.stride + 1)

    def param_shapes(self, in_shape):
        return {"kernels": (self.filters, in_shape[0], self.kernel, self.kernel),
                "bias": (self.filters,)}

    def apply(self, x, kernels, bias):
        return ad.relu(ad.conv2d_same(x, kernels, bias, stride=self.stride))


@dataclass(frozen=True)
class Pool2dSpec(_Layer):
    """Unpadded max-pooling with a square window."""

    window: int
    stride: int
    tag = "pool2d"
    rank = 3

    def out_shape(self, shape):
        return (shape[0],
                (shape[1] - self.window) // self.stride + 1,
                (shape[2] - self.window) // self.stride + 1)

    def apply(self, x):
        return ad.maxpool2d(x, self.window, self.stride)


@dataclass(frozen=True)
class FlattenSpec(_Layer):
    tag = "flatten"

    def out_shape(self, shape):
        return (math.prod(shape),)

    def apply(self, x):
        return ad.reshape(x, (x.shape[0], math.prod(x.shape[1:])))


@dataclass(frozen=True)
class DenseSpec(_Layer):
    width: int
    tag = "dense"
    rank = 1
    group = "fc"

    def out_shape(self, shape):
        return (self.width,)

    def param_shapes(self, in_shape):
        return {"weight": (in_shape[0], self.width), "bias": (self.width,)}

    def apply(self, x, weight, bias):
        return ad.relu(ad.fully_connected(x, weight, bias))


LayerSpec = Conv1dSpec | Pool1dSpec | Conv2dSpec | Pool2dSpec | FlattenSpec | DenseSpec

_LAYER_TYPES = {cls.tag: cls for cls in get_args(LayerSpec)}


def _walk(input_shape: tuple[int, ...], layers):
    """Yield (layer, input shape, output shape, parameter group name) along a
    pathway, checking each layer's input rank and output shape.

    The group name is ``conv{n}`` or ``fc{n}``, counted separately, and None
    for layers without parameters; parameters are named
    ``{modality}.{group name}.{parameter}``.
    """
    counts: Counter[str] = Counter()
    shape = tuple(input_shape)
    for layer in layers:
        if type(layer) not in _LAYER_TYPES.values():
            raise ConfigError(f"unknown layer spec {layer!r}")
        if layer.rank and len(shape) != layer.rank:
            raise ConfigError(f"{layer.tag} layer needs a rank-{layer.rank} input, got shape {shape}")
        out = layer.out_shape(shape)
        if any(n <= 0 for n in out):
            raise ConfigError(f"layer {layer!r} produced empty shape {out}")
        name = None
        if layer.group:
            counts[layer.group] += 1
            name = f"{layer.group}{counts[layer.group]}"
        yield layer, shape, out, name
        shape = out


def trace_pathway(input_shape: tuple[int, ...], layers) -> list[tuple[int, ...]]:
    """Shapes (excluding the batch axis) after each layer of a pathway."""
    return [tuple(input_shape)] + [out for _, _, out, _ in _walk(input_shape, layers)]


@dataclass(frozen=True)
class NetworkSpec:
    """Layer stacks and dimensions for the three pathways plus shared trunk."""

    vision_input: tuple[int, int, int]
    sound_input: tuple[int, int]
    text_input: tuple[int, int]
    vision_layers: tuple[LayerSpec, ...]
    sound_layers: tuple[LayerSpec, ...]
    text_layers: tuple[LayerSpec, ...]
    shared_widths: tuple[int, ...]
    output_dim: int
    bottleneck_dim: int

    def __post_init__(self):
        if not self.shared_widths or self.output_dim < 1 or self.bottleneck_dim < 1:
            raise ConfigError("shared widths, output_dim and bottleneck_dim must be positive")
        for modality in MODALITIES:
            out = trace_pathway(self.input_shape(modality), self.pathway(modality))[-1]
            if out != (self.bottleneck_dim,):
                raise ConfigError(
                    f"{modality} pathway produces {out}, expected bottleneck "
                    f"({self.bottleneck_dim},)"
                )

    def input_shape(self, modality: str) -> tuple[int, ...]:
        if modality == "image":
            return self.vision_input
        if modality == "sound":
            return self.sound_input
        if modality == "text":
            return self.text_input
        raise ConfigError(f"unknown modality {modality!r}")

    def pathway(self, modality: str) -> tuple[LayerSpec, ...]:
        if modality == "image":
            return self.vision_layers
        if modality == "sound":
            return self.sound_layers
        if modality == "text":
            return self.text_layers
        raise ConfigError(f"unknown modality {modality!r}")


def default_paper_spec() -> NetworkSpec:
    """Full-scale architecture.

    Sound: 257 channels x 500 steps, three 1-D convs (kernels 11/5/3, filters
    128/256/256) each followed by relu and factor-5 max-pooling, giving a
    4 x 256 map that a fully connected layer projects to the 9216 bottleneck.
    Text: 300 x 16, three kernel-3 convs with 300 filters, pooling by 2 after
    the second and third, then a fully connected projection to 9216.
    Vision: Krizhevsky-style stack (ungrouped, no LRN) whose flattened final
    pool is exactly 6*6*256 = 9216 at 227 x 227 input.
    Shared trunk: 4096, 4096, then a 1000-way softmax.
    """
    return NetworkSpec(
        vision_input=(3, 227, 227),
        sound_input=(257, 500),
        text_input=(300, 16),
        vision_layers=(
            Conv2dSpec(11, 96, stride=4),
            Pool2dSpec(3, 2),
            Conv2dSpec(5, 256),
            Pool2dSpec(3, 2),
            Conv2dSpec(3, 384),
            Conv2dSpec(3, 384),
            Conv2dSpec(3, 256),
            Pool2dSpec(3, 2),
            FlattenSpec(),
        ),
        sound_layers=(
            Conv1dSpec(11, 128),
            Pool1dSpec(5),
            Conv1dSpec(5, 256),
            Pool1dSpec(5),
            Conv1dSpec(3, 256),
            Pool1dSpec(5),
            FlattenSpec(),
            DenseSpec(9216),
        ),
        text_layers=(
            Conv1dSpec(3, 300),
            Conv1dSpec(3, 300),
            Pool1dSpec(2),
            Conv1dSpec(3, 300),
            Pool1dSpec(2),
            FlattenSpec(),
            DenseSpec(9216),
        ),
        shared_widths=(4096, 4096),
        output_dim=1000,
        bottleneck_dim=9216,
    )


def _scaled(width: int, scale: float) -> int:
    """Scale a width and round to the nearest multiple of 8 (half up)."""
    scaled = 8 * math.floor(width * scale / 8 + 0.5)
    if scaled <= 0:
        raise ConfigError(f"scale {scale} collapses width {width} to zero")
    return scaled


def desk_spec(scale: float) -> NetworkSpec:
    """Proportionally narrowed spec for CPU-scale experiments.

    scale=1 returns the paper architecture unchanged. For scale<1, sound and
    text keep the paper's topology and pooling factors with every layer's
    filter count or width scaled (rounded to a multiple of 8), and so do the
    trunk, output and bottleneck, while the vision pathway swaps the
    Krizhevsky stack for a three-conv 32x32 stack: the claims under test
    concern alignment, not ImageNet-scale vision.
    """
    if not 0 < scale <= 1:
        raise ConfigError(f"scale must be in (0, 1], got {scale}")
    paper = default_paper_spec()
    if scale == 1:
        return paper

    def narrow(layers):
        return tuple(replace(layer, **{f.name: _scaled(getattr(layer, f.name), scale)
                                       for f in fields(layer) if f.name in ("filters", "width")})
                     for layer in layers)

    bottleneck = _scaled(paper.bottleneck_dim, scale)
    return replace(
        paper,
        vision_input=(3, 32, 32),
        vision_layers=(
            Conv2dSpec(3, _scaled(128, scale)),
            Pool2dSpec(2, 2),
            Conv2dSpec(3, _scaled(256, scale)),
            Pool2dSpec(2, 2),
            Conv2dSpec(3, _scaled(256, scale)),
            Pool2dSpec(2, 2),
            FlattenSpec(),
            DenseSpec(bottleneck),
        ),
        sound_layers=narrow(paper.sound_layers),
        text_layers=narrow(paper.text_layers),
        shared_widths=tuple(_scaled(w, scale) for w in paper.shared_widths),
        output_dim=_scaled(paper.output_dim, scale),
        bottleneck_dim=bottleneck,
    )


def parameter_shapes(spec: NetworkSpec) -> dict[str, tuple[int, ...]]:
    """Parameter names and shapes in a fixed, deterministic order.

    Shared-trunk parameters appear once; every pathway forward reads the same
    tensors, which is what makes the trunk genuinely shared.
    """
    shapes: dict[str, tuple[int, ...]] = {}
    for modality in MODALITIES:
        for layer, in_shape, _, name in _walk(spec.input_shape(modality), spec.pathway(modality)):
            for param, shape in layer.param_shapes(in_shape).items():
                shapes[f"{modality}.{name}.{param}"] = shape
    prev = spec.bottleneck_dim
    for i, width in enumerate(spec.shared_widths, start=1):
        shapes[f"shared.fc{i}.weight"] = (prev, width)
        shapes[f"shared.fc{i}.bias"] = (width,)
        prev = width
    shapes["shared.out.weight"] = (prev, spec.output_dim)
    shapes["shared.out.bias"] = (spec.output_dim,)
    return shapes


@dataclass
class ModelParams:
    """Named parameter tensors for one NetworkSpec."""

    spec: NetworkSpec
    tensors: dict[str, Tensor] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.grad = None


def init_params(spec: NetworkSpec, seed: int, sigma: float = 0.01) -> ModelParams:
    """Gaussian white noise weights (std sigma), zero biases, reproducible."""
    if sigma <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(spec).items():
        if name.endswith(".bias"):
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, sigma, size=shape)
        tensors[name] = Tensor(data, requires_grad=True)
    return ModelParams(spec=spec, tensors=tensors)


def forward_batch(params: ModelParams, batch: np.ndarray, modality: str) -> dict[str, Tensor]:
    """Run one modality pathway plus the shared trunk on a batch.

    batch: (B, *input_shape) for the modality. Returns the bottleneck, both
    shared hidden activations, and the softmax output.
    """
    spec = params.spec
    expected = spec.input_shape(modality)
    if batch.ndim != len(expected) + 1 or tuple(batch.shape[1:]) != expected:
        raise ShapeError(
            f"{modality} batch has shape {batch.shape}, expected (B, {', '.join(map(str, expected))})"
        )

    t = Tensor(np.asarray(batch, dtype=np.float64))
    for layer, in_shape, _, name in _walk(expected, spec.pathway(modality)):
        t = layer.apply(t, *(params[f"{modality}.{name}.{param}"]
                             for param in layer.param_shapes(in_shape)))
    bottleneck = t

    hidden = bottleneck
    shared: list[Tensor] = []
    for i in range(1, len(spec.shared_widths) + 1):
        hidden = ad.relu(ad.fully_connected(
            hidden, params[f"shared.fc{i}.weight"], params[f"shared.fc{i}.bias"]))
        shared.append(hidden)
    logits = ad.fully_connected(hidden, params["shared.out.weight"], params["shared.out.bias"])
    probs = ad.softmax(logits)

    return {
        "bottleneck": bottleneck,
        "shared1": shared[0],
        "shared2": shared[-1],
        "softmax": probs,
    }


# -- NetworkSpec JSON serialization ----------------------------------------


def _layer_from_json(record) -> LayerSpec:
    if not isinstance(record, dict):
        raise ConfigError(f"layer record must be a JSON object, got {record!r}")
    values = dict(record)
    tag = values.pop("type", None)
    if tag not in _LAYER_TYPES:
        raise ConfigError(f"unknown layer type {tag!r}")
    try:
        return _LAYER_TYPES[tag](**values)
    except TypeError as exc:
        raise ConfigError(f"{tag} layer record {record}: {exc}") from exc


def spec_to_json(spec: NetworkSpec) -> str:
    """Every NetworkSpec field; a layer is written as ``{"type": tag, **fields}``."""
    return json.dumps(vars(spec), sort_keys=True, indent=2, default=_Layer.to_json)


def spec_from_json(text: str) -> NetworkSpec:
    doc = json.loads(text)
    values = {}
    for f in fields(NetworkSpec):
        if f.name not in doc:
            raise ConfigError(f"network spec JSON missing field {f.name!r}")
        value = doc[f.name]
        if f.name.endswith("_layers"):
            value = tuple(_layer_from_json(r) for r in value)
        elif isinstance(value, list):
            value = tuple(value)
        values[f.name] = value
    return NetworkSpec(**values)
