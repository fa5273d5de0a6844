"""Four-stage pyramid model built from the attention blocks.

An overlapping tokenizer (four 3x3 convolutions, strides 2-1-2-1) embeds the
image at 1/4 resolution; each of the four stages stacks blocks of one kind
('D' = windowed dilated attention, 'G' = global attention), with a 3x3
stride-2 overlapping downsampler between stages; a final norm, global average
pool and linear classifier produce the logits.

Parameters live in a flat dict keyed by dotted paths such as
``stage1.block0.qkv.weight`` so checkpoints, the profiler and the gradient
checker all agree on naming.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import shutil
import tempfile
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import dft1
from .autograd import AttentionSink, Node, NoRecordTape, Parameter, graph
from .errors import ConfigError, FormatError, NumericError
from .msda import MsdaBlockSpec, block_param_shapes, param_node, transformer_block, trunc_normal

CONFIG_FORMAT_VERSION = "2"
CONFIG_FILE = "config.json"  # a checkpoint's config, beside its tensors
IN_CHANNELS = 3  # RGB
TOKENIZER_STRIDES = (2, 1, 2, 1)  # of its four 3x3 convs


def _integers(what: str, *values) -> None:
    """ConfigError unless every value is an integer; a JSON float or bool is not."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ConfigError(f"{what} must be integers, got {v!r}")


def _typed(what: str, value, kind: type) -> None:
    if not isinstance(value, kind):
        raise ConfigError(f"{what} must be a {kind.__name__}, got {value!r}")


@dataclass(frozen=True)
class StageSpec:
    kind: str  # 'D' or 'G'
    depth: int
    dim: int
    n_heads: int
    dilation_rates: tuple[int, ...] = (1, 2, 3)
    kernel_w: int = 3

    def __post_init__(self):
        if self.kind not in ("D", "G"):
            raise ConfigError(f"stage kind must be 'D' or 'G', got {self.kind!r}")
        _typed("stage dilation_rates", self.dilation_rates, tuple)
        _integers("stage depth, dim, n_heads, kernel_w and dilation rates",
                  self.depth, self.dim, self.n_heads, self.kernel_w, *self.dilation_rates)
        if self.depth < 1:
            raise ConfigError(f"stage depth must be >= 1, got {self.depth}")


@dataclass(frozen=True)
class ModelConfig:
    """The field order is the order of the JSON form, so ``stages`` is keyword-only."""

    name: str = "custom"
    input_size: int = 224
    num_classes: int = 1000
    mlp_ratio: int = 4
    stages: tuple[StageSpec, StageSpec, StageSpec, StageSpec] = field(kw_only=True)

    def __post_init__(self):
        if not isinstance(self.stages, tuple) or len(self.stages) != 4:
            raise ConfigError(f"expected a list of 4 stages, got {self.stages!r}")
        _typed("name", self.name, str)
        sizes = (self.input_size, self.num_classes, self.mlp_ratio)
        _integers("input_size, num_classes and mlp_ratio", *sizes)
        if min(sizes) < 1:
            raise ConfigError(f"input_size, num_classes and mlp_ratio must be >= 1, got {sizes}")
        if self.input_size % 32 != 0:
            raise ConfigError(f"input_size must be divisible by 32, got {self.input_size}")
        if self.stages[0].dim % 2 != 0:
            raise ConfigError(f"stage-1 dim must be even for the tokenizer ramp, got {self.stages[0].dim}")
        for i in range(4):
            try:
                self.block_spec(i)
            except ConfigError as exc:
                raise ConfigError(f"stage {i + 1}: {exc}") from exc

    @property
    def tokenizer_channels(self) -> tuple[int, int, int, int]:
        """Output channels of the four tokenizer convs: d1/2, d1/2, d1, d1."""
        d1 = self.stages[0].dim
        return (d1 // 2, d1 // 2, d1, d1)

    def stage_resolution(self, stage_index: int) -> int:
        return self.input_size // math.prod(TOKENIZER_STRIDES) // (2**stage_index)

    def block_spec(self, stage_index: int) -> MsdaBlockSpec:
        stage = self.stages[stage_index]
        return MsdaBlockSpec(
            dim=stage.dim,
            n_heads=stage.n_heads,
            dilation_rates=stage.dilation_rates if stage.kind == "D" else (1,),
            kernel_w=stage.kernel_w,
            mlp_ratio=self.mlp_ratio,
        )


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _preset(name, dims, heads, depths, num_classes=1000, input_size=224):
    stages = []
    for i in range(4):
        kind = "D" if i < 2 else "G"
        stages.append(
            StageSpec(kind=kind, depth=depths[i], dim=dims[i], n_heads=heads[i])
        )
    return ModelConfig(
        stages=tuple(stages), input_size=input_size, num_classes=num_classes, name=name
    )


def tiny() -> ModelConfig:
    return _preset("tiny", [72, 144, 288, 576], [3, 6, 12, 24], [2, 2, 6, 2])


def small() -> ModelConfig:
    return _preset("small", [72, 144, 288, 576], [3, 6, 12, 24], [3, 5, 8, 3])


def base() -> ModelConfig:
    return _preset("base", [96, 192, 384, 768], [3, 6, 12, 24], [4, 8, 10, 3])


def toy(num_classes: int = 4, input_size: int = 32) -> ModelConfig:
    """Desk-scale config for tests and synthetic training.

    The head counts are not multiples of 3, so the G stages carry a
    two-rate list for when a pattern override turns them dilated.
    """
    stages = (
        StageSpec("D", 1, 16, 2, dilation_rates=(1, 2)),
        StageSpec("D", 1, 32, 2, dilation_rates=(1, 2)),
        StageSpec("G", 1, 48, 4, dilation_rates=(1, 2)),
        StageSpec("G", 1, 64, 4, dilation_rates=(1, 2)),
    )
    return ModelConfig(
        stages=stages,
        input_size=input_size,
        num_classes=num_classes,
        name="toy",
    )


PRESETS = {"tiny": tiny, "small": small, "base": base, "toy": toy}


def check_pattern(pattern: str) -> str:
    """The pattern, unless it is not 4 characters over D/G (a ConfigError)."""
    if len(pattern) != 4 or any(c not in "DG" for c in pattern):
        raise ConfigError(f"pattern must be 4 characters over D/G, got {pattern!r}")
    return pattern


def build_from_pattern(pattern: str, base_config: ModelConfig) -> ModelConfig:
    """Override the per-stage block kinds with a 4-character D/G pattern."""
    check_pattern(pattern)
    stages = tuple(
        replace(stage, kind=c) for stage, c in zip(base_config.stages, pattern)
    )
    return replace(base_config, stages=stages, name=f"{base_config.name}-{pattern}")


# ---------------------------------------------------------------------------
# Parameter tree
# ---------------------------------------------------------------------------


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter path and its shape, in initialization order."""
    shapes: dict[str, tuple[int, ...]] = {}
    chans = [IN_CHANNELS, *config.tokenizer_channels]
    for i in range(4):
        shapes[f"tokenizer.conv{i + 1}.weight"] = (3, 3, chans[i], chans[i + 1])
        shapes[f"tokenizer.conv{i + 1}.bias"] = (chans[i + 1],)
        if i < 3:
            shapes[f"tokenizer.norm{i + 1}.gamma"] = (chans[i + 1],)
            shapes[f"tokenizer.norm{i + 1}.beta"] = (chans[i + 1],)

    for s, stage in enumerate(config.stages, start=1):
        spec = config.block_spec(s - 1)
        for b in range(stage.depth):
            shapes.update(block_param_shapes(spec, f"stage{s}.block{b}"))
        if s < 4:
            shapes[f"downsample{s}.weight"] = (3, 3, stage.dim, config.stages[s].dim)
            shapes[f"downsample{s}.bias"] = (config.stages[s].dim,)

    d4 = config.stages[3].dim
    shapes["head.norm.gamma"] = (d4,)
    shapes["head.norm.beta"] = (d4,)
    shapes["head.fc.weight"] = (d4, config.num_classes)
    shapes["head.fc.bias"] = (config.num_classes,)
    return shapes


def init_params(
    config: ModelConfig, seed: int = 0, dtype=np.float32
) -> dict[str, Parameter]:
    """Deterministic parameter tree: trunc-normal weights, zero biases, unit norms."""
    rng = np.random.default_rng(seed)
    params: dict[str, Parameter] = {}
    for name, shape in parameter_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "weight":
            value = trunc_normal(rng, shape, dtype=dtype)
        elif leaf == "gamma":
            value = np.ones(shape, dtype=dtype)
        else:  # bias, beta
            value = np.zeros(shape, dtype=dtype)
        params[name] = Parameter(name, value)
    return params


# ---------------------------------------------------------------------------
# Forward graph
# ---------------------------------------------------------------------------


def tokenize(g: graph, image: Node, config: ModelConfig, params) -> Node:
    """Four overlapping 3x3 convs with TOKENIZER_STRIDES; norm+GELU after all but the last."""
    if image.data.shape[-3] % 4 != 0 or image.data.shape[-2] % 4 != 0:
        raise ConfigError(f"tokenizer needs extents divisible by 4, got {image.data.shape}")

    def p(leaf: str) -> Node:
        return param_node(g, params, f"tokenizer.{leaf}")

    x = image
    for i, stride in enumerate(TOKENIZER_STRIDES):
        x = g.conv2d(x, p(f"conv{i + 1}.weight"), p(f"conv{i + 1}.bias"), stride=stride, zero_pad=1)
        if i < 3:
            x = g.layernorm(x, p(f"norm{i + 1}.gamma"), p(f"norm{i + 1}.beta"))
            x = g.gelu(x)
    return x


def downsample(g: graph, x: Node, params, index: int) -> Node:
    """3x3 stride-2 overlapping patch merge between stages."""
    h, w, _ = x.data.shape[-3:]
    if h % 2 != 0 or w % 2 != 0:
        raise ConfigError(f"downsampler needs even extents, got {x.data.shape}")
    return g.conv2d(x, param_node(g, params, f"downsample{index}.weight"),
                    param_node(g, params, f"downsample{index}.bias"), stride=2, zero_pad=1)


def forward(
    g: graph,
    image: Node,
    config: ModelConfig,
    params: Mapping[str, Parameter],
    attn_sink: AttentionSink | None = None,
) -> Node:
    """Logits [..., K] for an image node [..., S, S, IN_CHANNELS]; leading axes are batch.
    ``params`` is looked up once per tensor, as its layer runs. An ``attn_sink`` gets
    every head's attention weights as they appear, through a graph on g's tape that
    carries it (see ``graph.swda``)."""
    s = config.input_size
    if image.data.shape[-3:] != (s, s, IN_CHANNELS):
        raise ConfigError(f"image shape {image.data.shape} does not match configured (..., {s}, {s}, {IN_CHANNELS})")
    if not np.isfinite(image.data).all():
        raise NumericError("image holds non-finite values")
    if attn_sink is not None:
        g = graph(g.tape, attn_sink)
    x = tokenize(g, image, config, params)
    for si, stage in enumerate(config.stages, start=1):
        spec = config.block_spec(si - 1)
        for b in range(stage.depth):
            x = transformer_block(g, x, spec, params, f"stage{si}.block{b}", kind=stage.kind)
        if si < 4:
            x = downsample(g, x, params, si)
    x = g.layernorm(x, param_node(g, params, "head.norm.gamma"), param_node(g, params, "head.norm.beta"))
    pooled = g.global_avg_pool(x)
    return g.linear(pooled, param_node(g, params, "head.fc.weight"), param_node(g, params, "head.fc.bias"))


def predict(
    config: ModelConfig, params: dict[str, Parameter], images: np.ndarray
) -> np.ndarray:
    """Logits for a [S,S,C] image or a [B,S,S,C] batch, one image per untaped forward:
    BLAS may round a row of a multi-row product unlike the same row alone."""
    single = images.ndim == 3
    batch = images[None] if single else images
    outs = []
    for img in batch:
        g = graph(NoRecordTape())
        outs.append(forward(g, g.leaf(img), config, params).data)
    stacked = np.stack(outs, axis=0)
    return stacked[0] if single else stacked


# ---------------------------------------------------------------------------
# Config and checkpoint serialization
# ---------------------------------------------------------------------------


def _to_json(obj):
    """A dataclass as its JSON object, field by field; tuples become lists."""
    if isinstance(obj, tuple):
        return [_to_json(v) for v in obj]
    if is_dataclass(obj):
        return {f.name: _to_json(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def _from_json(cls, obj, what: str):
    """``cls`` built from a JSON object: lists become tuples, and a non-object,
    an unknown key or a missing required key is a ConfigError. Every default
    and every rule on a value lives on ``cls`` alone."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} is a JSON object, got {type(obj).__name__}")
    names = [f.name for f in fields(cls)]
    for key in obj:
        if key not in names:
            raise ConfigError(f"{what} has unknown key {key!r}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in obj:
            raise ConfigError(f"{what} is missing required key {f.name!r}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()})


def config_to_dict(config: ModelConfig) -> dict:
    return {"format_version": CONFIG_FORMAT_VERSION, **_to_json(config)}


def config_from_dict(d: dict) -> ModelConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"a config is a JSON object, got {type(d).__name__}")
    d = dict(d)
    version = d.pop("format_version", CONFIG_FORMAT_VERSION)
    if version != CONFIG_FORMAT_VERSION:
        raise ConfigError(f"unsupported config format version {version!r}")
    if isinstance(d.get("stages"), list):
        d["stages"] = [_from_json(StageSpec, s, f"stage {i + 1}") for i, s in enumerate(d["stages"])]
    return _from_json(ModelConfig, d, "a config")


def load_config(path: str | os.PathLike) -> ModelConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except (OSError, ValueError) as exc:  # missing or unreadable, not UTF-8, not JSON
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(d)


def save_checkpoint(
    directory: str | os.PathLike, config: ModelConfig, params: dict[str, Parameter]
) -> None:
    """Write CONFIG_FILE and one ``<name>.dft1`` per parameter into a temporary sibling
    directory, then rename it into place, so a failed save leaves the old checkpoint
    whole; only a checkpoint is replaced."""
    dtypes = {p.value.dtype for p in params.values()}
    if len(dtypes) != 1 or not dtypes <= {np.dtype(np.float32), np.dtype(np.float64)}:
        raise FormatError(
            f"a checkpoint holds one dtype, f32 or f64; the parameters are {sorted(map(str, dtypes))}"
        )
    directory = os.path.abspath(directory)
    old = os.listdir(directory) if os.path.exists(directory) else []  # NotADirectoryError for a file
    if any(f != CONFIG_FILE and not f.endswith(".dft1") for f in old):
        raise FormatError(f"{directory} holds files no checkpoint writes; not replacing it")
    os.makedirs(os.path.dirname(directory), exist_ok=True)
    staging = tempfile.mkdtemp(prefix=f".{os.path.basename(directory)}.", dir=os.path.dirname(directory))
    try:
        for name in sorted(params):
            dft1.write_tensor(os.path.join(staging, f"{name}.dft1"), params[name].value)
        with open(os.path.join(staging, CONFIG_FILE), "w", encoding="utf-8") as fh:
            json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)  # as configs/*.json
            fh.write("\n")
        if os.path.exists(directory):  # aside until the new checkpoint is in place
            os.rename(directory, staging + ".old")
        os.rename(staging, directory)
    finally:
        shutil.rmtree(staging, ignore_errors=True)  # left only by a failed save
    shutil.rmtree(staging + ".old", ignore_errors=True)


def _read(directory: str, name: str, reader):
    """``reader(path)`` on the tensor's file; a FormatError it raises, a missing file's
    too, gets the tensor and file named in front and keeps its byte offset."""
    path = os.path.join(directory, f"{name}.dft1")
    try:
        return reader(path)
    except FormatError as exc:
        named = FormatError(f"tensor {name} ({path}): {exc}")
        named.offset = exc.offset
        raise named from exc


class CheckpointTensors(Mapping):
    """A checkpoint's parameters by name, read-only: the names are the config's, each
    in ``<name>.dft1``. Each lookup reads and decodes that file, checks its dtype and
    shape again and keeps nothing."""

    def __init__(self, directory: str, shapes: dict[str, tuple[int, ...]], dtype: np.dtype):
        self._directory, self._shapes, self.dtype = directory, shapes, dtype

    def check(self, name: str, dtype: np.dtype, shape: tuple[int, ...]) -> None:
        if dtype != self.dtype:
            raise FormatError(f"tensor {name} is {dtype}, the checkpoint is {self.dtype}")
        if shape != self._shapes[name]:
            raise FormatError(f"tensor {name} has shape {shape}, the config expects {self._shapes[name]}")

    def __getitem__(self, name: str) -> Parameter:
        if name not in self._shapes:
            raise KeyError(name)
        value = _read(self._directory, name, dft1.read_tensor)
        self.check(name, value.dtype, value.shape)
        return Parameter(name, value)

    def __contains__(self, name) -> bool:
        return name in self._shapes

    def __iter__(self):
        return iter(self._shapes)

    def __len__(self) -> int:
        return len(self._shapes)


def open_checkpoint(directory: str | os.PathLike) -> tuple[ModelConfig, CheckpointTensors]:
    """The config and a lazy view of the tensors. The directory holds CONFIG_FILE and one
    ``<name>.dft1`` per parameter of that config, nothing else. Every file's header and
    size are checked against the first tensor's dtype and the config's shapes; no
    payload is read."""
    directory = os.fspath(directory)
    config_path = os.path.join(directory, CONFIG_FILE)
    if not os.path.isfile(config_path):
        raise FormatError(f"no {CONFIG_FILE} in checkpoint directory {directory}")
    config = load_config(config_path)
    shapes = parameter_shapes(config)
    stray = sorted(set(os.listdir(directory)) - {CONFIG_FILE} - {f"{name}.dft1" for name in shapes})
    if stray:
        raise FormatError(f"{directory} holds {stray[0]!r}, which is no file of this config's checkpoint")
    headers = [(name, *_read(directory, name, dft1.read_header)) for name in shapes]
    tensors = CheckpointTensors(directory, shapes, dtype=headers[0][1])
    for header in headers:
        tensors.check(*header)
    return config, tensors


def load_checkpoint(
    directory: str | os.PathLike,
) -> tuple[ModelConfig, dict[str, Parameter]]:
    """The config and every tensor of ``open_checkpoint``, read."""
    config, tensors = open_checkpoint(directory)
    return config, dict(tensors.items())
