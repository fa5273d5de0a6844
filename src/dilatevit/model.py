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
import os
from dataclasses import dataclass, replace

import numpy as np

from . import dft1
from .autograd import Node, NoRecordTape, Parameter, graph
from .errors import ConfigError, FormatError
from .msda import LN_EPS, MsdaBlockSpec, block_param_shapes, transformer_block, trunc_normal
from .tensor import DTYPE_NAMES, DTYPES

CONFIG_FORMAT_VERSION = "1"


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
        if self.depth < 1:
            raise ConfigError(f"stage depth must be >= 1, got {self.depth}")
        if self.dim < 1 or self.dim % self.n_heads != 0:
            raise ConfigError(
                f"stage dim {self.dim} must be positive and divisible by n_heads {self.n_heads}"
            )

    def block_spec(self, mlp_ratio: int, qkv_bias: bool, edge_mode: str) -> MsdaBlockSpec:
        rates = tuple(self.dilation_rates) if self.kind == "D" else (1,)
        return MsdaBlockSpec(
            dim=self.dim,
            n_heads=self.n_heads,
            dilation_rates=rates,
            kernel_w=self.kernel_w,
            edge_mode=edge_mode,
            mlp_ratio=mlp_ratio,
            qkv_bias=qkv_bias,
        )


@dataclass(frozen=True)
class ModelConfig:
    stages: tuple[StageSpec, StageSpec, StageSpec, StageSpec]
    input_size: int = 224
    in_channels: int = 3
    num_classes: int = 1000
    mlp_ratio: int = 4
    qkv_bias: bool = True
    edge_mode: str = "zero_pad"
    tokenizer_channels: tuple[int, ...] = ()
    name: str = "custom"

    def __post_init__(self):
        if len(self.stages) != 4:
            raise ConfigError(f"expected 4 stages, got {len(self.stages)}")
        if self.input_size % 32 != 0:
            raise ConfigError(f"input_size must be divisible by 32, got {self.input_size}")
        if not self.tokenizer_channels:
            d1 = self.stages[0].dim
            if d1 % 2 != 0:
                raise ConfigError(f"stage-1 dim must be even for the tokenizer ramp, got {d1}")
            object.__setattr__(self, "tokenizer_channels", (d1 // 2, d1 // 2, d1, d1))
        tc = self.tokenizer_channels
        if len(tc) != 4 or tc[-1] != self.stages[0].dim or any(c < 1 for c in tc):
            raise ConfigError(
                f"tokenizer_channels must be 4 positive values ending in the stage-1 dim, got {tc}"
            )

    @property
    def block_pattern(self) -> str:
        return "".join(s.kind for s in self.stages)

    def stage_resolution(self, stage_index: int, input_size: int | None = None) -> int:
        size = input_size or self.input_size
        return size // 4 // (2**stage_index)

    def block_spec(self, stage_index: int) -> MsdaBlockSpec:
        return self.stages[stage_index].block_spec(self.mlp_ratio, self.qkv_bias, self.edge_mode)


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


def build_from_pattern(pattern: str, base_config: ModelConfig) -> ModelConfig:
    """Override the per-stage block kinds with a 4-character D/G pattern."""
    if len(pattern) != 4 or any(c not in "DG" for c in pattern):
        raise ConfigError(f"pattern must be 4 characters over D/G, got {pattern!r}")
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
    tc = config.tokenizer_channels
    chans = [config.in_channels, *tc]
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


def parameter_count(params: dict[str, Parameter]) -> int:
    return sum(p.value.size for p in params.values())


def validate_params(config: ModelConfig, params: dict[str, Parameter]) -> None:
    """Check the tree matches the config; report the first offending path."""
    expected = parameter_shapes(config)
    for name in sorted(expected):
        got = params.get(name)
        if got is None:
            raise ConfigError(f"missing parameter: {name}")
        if got.value.shape != expected[name]:
            raise ConfigError(
                f"parameter {name} has shape {got.value.shape}, expected {expected[name]}"
            )
    for name in sorted(params):
        if name not in expected:
            raise ConfigError(f"unexpected parameter: {name}")


# ---------------------------------------------------------------------------
# Forward graph
# ---------------------------------------------------------------------------


def _pget(params, name):
    p = params.get(name)
    if p is None:
        raise ConfigError(f"missing parameter: {name}")
    return p


def tokenize(g: graph, image: Node, config: ModelConfig, params) -> Node:
    """Four overlapping 3x3 convs with strides 2,1,2,1; norm+GELU after all but the last."""
    if image.data.shape[-3] % 4 != 0 or image.data.shape[-2] % 4 != 0:
        raise ConfigError(f"tokenizer needs extents divisible by 4, got {image.data.shape}")
    x = image
    strides = (2, 1, 2, 1)
    for i in range(4):
        x = g.conv2d(x, g.param(_pget(params, f"tokenizer.conv{i + 1}.weight")), stride=strides[i], zero_pad=1)
        x = g.add_bias(x, g.param(_pget(params, f"tokenizer.conv{i + 1}.bias")))
        if i < 3:
            x = g.layernorm(
                x,
                g.param(_pget(params, f"tokenizer.norm{i + 1}.gamma")),
                g.param(_pget(params, f"tokenizer.norm{i + 1}.beta")),
                eps=LN_EPS,
            )
            x = g.gelu(x)
    return x


def downsample(g: graph, x: Node, params, index: int) -> Node:
    """3x3 stride-2 overlapping patch merge between stages."""
    h, w, _ = x.data.shape[-3:]
    if h % 2 != 0 or w % 2 != 0:
        raise ConfigError(f"downsampler needs even extents, got {x.data.shape}")
    x = g.conv2d(x, g.param(_pget(params, f"downsample{index}.weight")), stride=2, zero_pad=1)
    return g.add_bias(x, g.param(_pget(params, f"downsample{index}.bias")))


def forward(
    g: graph,
    image: Node,
    config: ModelConfig,
    params: dict[str, Parameter],
    attn_sink: list | None = None,
) -> Node:
    """Logits [..., K] for an image node [..., S, S, in_channels]; leading axes are batch."""
    s = config.input_size
    if image.data.shape[-3:] != (s, s, config.in_channels):
        raise ConfigError(
            f"image shape {image.data.shape} does not match configured "
            f"(..., {s}, {s}, {config.in_channels})"
        )
    x = tokenize(g, image, config, params)
    for si, stage in enumerate(config.stages, start=1):
        spec = config.block_spec(si - 1)
        kind = "MSDA" if stage.kind == "D" else "MHSA"
        for b in range(stage.depth):
            x = transformer_block(
                g, x, spec, params, f"stage{si}.block{b}", kind=kind, attn_sink=attn_sink
            )
        if si < 4:
            x = downsample(g, x, params, si)
    x = g.layernorm(
        x, g.param(_pget(params, "head.norm.gamma")), g.param(_pget(params, "head.norm.beta")), eps=LN_EPS
    )
    pooled = g.global_avg_pool(x)
    return g.linear(
        pooled, g.param(_pget(params, "head.fc.weight")), g.param(_pget(params, "head.fc.bias"))
    )


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


def config_to_dict(config: ModelConfig) -> dict:
    return {
        "format_version": CONFIG_FORMAT_VERSION,
        "name": config.name,
        "input_size": config.input_size,
        "in_channels": config.in_channels,
        "num_classes": config.num_classes,
        "mlp_ratio": config.mlp_ratio,
        "qkv_bias": config.qkv_bias,
        "edge_mode": config.edge_mode,
        "tokenizer_channels": list(config.tokenizer_channels),
        "stages": [
            {
                "kind": s.kind,
                "depth": s.depth,
                "dim": s.dim,
                "n_heads": s.n_heads,
                "dilation_rates": list(s.dilation_rates),
                "kernel_w": s.kernel_w,
            }
            for s in config.stages
        ],
    }


def config_from_dict(d: dict) -> ModelConfig:
    version = d.get("format_version", CONFIG_FORMAT_VERSION)
    if version != CONFIG_FORMAT_VERSION:
        raise ConfigError(f"unsupported config format version {version!r}")
    try:
        stages = tuple(
            StageSpec(
                kind=s["kind"],
                depth=s["depth"],
                dim=s["dim"],
                n_heads=s["n_heads"],
                dilation_rates=tuple(s.get("dilation_rates", (1, 2, 3))),
                kernel_w=s.get("kernel_w", 3),
            )
            for s in d["stages"]
        )
        return ModelConfig(
            stages=stages,
            input_size=d.get("input_size", 224),
            in_channels=d.get("in_channels", 3),
            num_classes=d.get("num_classes", 1000),
            mlp_ratio=d.get("mlp_ratio", 4),
            qkv_bias=d.get("qkv_bias", True),
            edge_mode=d.get("edge_mode", "zero_pad"),
            tokenizer_channels=tuple(d.get("tokenizer_channels", ())),
            name=d.get("name", "custom"),
        )
    except KeyError as exc:
        raise ConfigError(f"config is missing required key {exc}") from exc


def load_config(path: str | os.PathLike) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def save_checkpoint(
    directory: str | os.PathLike, config: ModelConfig, params: dict[str, Parameter]
) -> None:
    dtypes = {p.value.dtype for p in params.values()}
    if len(dtypes) != 1 or not dtypes <= DTYPE_NAMES.keys():
        raise FormatError(
            f"a checkpoint holds one dtype, f32 or f64; the parameters are {sorted(map(str, dtypes))}"
        )
    os.makedirs(directory, exist_ok=True)
    files = {}
    for name in sorted(params):
        fname = f"{name}.dft1"
        dft1.write_tensor(os.path.join(directory, fname), params[name].value)
        files[name] = fname
    manifest = {
        "format_version": "1",
        "dtype": DTYPE_NAMES[dtypes.pop()],
        "config": config_to_dict(config),
        "files": files,
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(
    directory: str | os.PathLike,
) -> tuple[ModelConfig, dict[str, Parameter]]:
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        raise FormatError(f"no manifest.json in checkpoint directory {directory}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise FormatError(f"{manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path} must hold a JSON object")
    if manifest.get("format_version") != "1":
        raise FormatError(
            f"unsupported checkpoint format version {manifest.get('format_version')!r}"
        )
    for key in ("config", "files"):
        if not isinstance(manifest.get(key), dict):
            raise FormatError(f"{manifest_path} needs a {key!r} object")
    if manifest.get("dtype") not in ("f32", "f64"):
        raise FormatError(f"{manifest_path}: dtype must be 'f32' or 'f64', got {manifest.get('dtype')!r}")
    dtype = DTYPES[manifest["dtype"]]
    config = config_from_dict(manifest["config"])
    params = {}
    for name, fname in manifest["files"].items():
        # Tensors live in the checkpoint directory itself, never elsewhere.
        if not isinstance(fname, str) or fname in ("", ".", "..") or set(fname) & set("/\\\0"):
            raise FormatError(f"tensor {name}: {fname!r} is not a plain file name")
        path = os.path.join(directory, fname)
        if not os.path.isfile(path):
            raise FormatError(f"tensor {name}: no file {fname!r} in {directory}")
        value = dft1.read_tensor(path)
        if value.dtype != dtype:
            raise FormatError(f"tensor {name} is {value.dtype}, the manifest says {manifest['dtype']}")
        params[name] = Parameter(name, value)
    validate_params(config, params)
    return config, params
