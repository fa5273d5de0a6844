"""Shared fixtures-by-function for the heavier test modules."""

import json
import os
import shutil
import tracemalloc

import numpy as np

from dilatevit import dft1, model
from dilatevit.autograd import Parameter
from dilatevit.errors import ConfigError, FormatError
from dilatevit.msda import MsdaBlockSpec, block_param_shapes


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc saw allocated while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_block_params_f32(spec: MsdaBlockSpec, prefix: str, rng) -> dict[str, Parameter]:
    params = {}
    for name, shape in block_param_shapes(spec, prefix).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gamma":
            value = np.ones(shape, dtype=np.float32)
        elif leaf in ("bias", "beta"):
            value = np.zeros(shape, dtype=np.float32)
        else:
            value = (0.3 * rng.standard_normal(shape)).astype(np.float32)
        params[name] = Parameter(name, value)
    return params


def _rewrite_config(text):
    """An edit that replaces a checkpoint's config.json with text(the toy config dict),
    a str written as UTF-8 or raw bytes."""

    def edit(ckpt):
        blob = text(model.config_to_dict(model.toy()))
        with open(os.path.join(ckpt, model.CONFIG_FILE), "wb") as fh:
            fh.write(blob.encode() if isinstance(blob, str) else blob)

    return edit


def _old_format(ckpt):
    """The layout before config.json: a manifest wrapping the config, with a file map."""
    files = {name: f"{name}.dft1" for name in model.parameter_shapes(model.toy())}
    manifest = {"format_version": "1", "dtype": "f32", "config": model.config_to_dict(model.toy()), "files": files}
    with open(os.path.join(ckpt, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    os.remove(os.path.join(ckpt, model.CONFIG_FILE))


def _remove(fname):
    return lambda ckpt: os.remove(os.path.join(ckpt, fname))


def _replace_by_directory(fname):
    def edit(ckpt):
        os.remove(os.path.join(ckpt, fname))
        os.mkdir(os.path.join(ckpt, fname))

    return edit


def _stray_copy(ckpt):
    shutil.copyfile(os.path.join(ckpt, "head.fc.bias.dft1"), os.path.join(ckpt, "extra.weight.dft1"))


def _first_tensor_f64(ckpt):
    """The first parameter's file, whose dtype the checkpoint's is, rewritten as f64."""
    path = os.path.join(ckpt, f"{next(iter(model.parameter_shapes(model.toy())))}.dft1")
    dft1.write_tensor(path, dft1.read_tensor(path).astype(np.float64))


# How each broken checkpoint is made from a valid one, and what opening it raises:
# (error type, pattern its message matches, edit(ckpt) breaking the directory in place).
BROKEN_CHECKPOINTS = {
    "not_json": (ConfigError, "config.json", _rewrite_config(lambda d: json.dumps(d)[:-9])),
    "not_utf8": (ConfigError, "config.json", _rewrite_config(lambda d: b'{"name": "\xff"}')),
    "not_an_object": (ConfigError, "JSON object", _rewrite_config(lambda d: json.dumps([d]))),
    "other_config": (FormatError, "the config expects", _rewrite_config(lambda d: json.dumps({**d, "num_classes": 5}))),
    "no_config": (FormatError, "no config.json", _remove(model.CONFIG_FILE)),
    "config_is_a_directory": (FormatError, "no config.json", _replace_by_directory(model.CONFIG_FILE)),
    "missing_file": (FormatError, "tensor head.fc.bias ", _remove("head.fc.bias.dft1")),
    "tensor_is_a_directory": (FormatError, "tensor head.fc.bias ", _replace_by_directory("head.fc.bias.dft1")),
    "first_tensor_f64": (FormatError, "is float32, the checkpoint is float64", _first_tensor_f64),
    "stray_file": (FormatError, "'extra.weight.dft1'", _stray_copy),
    "stray_directory": (FormatError, "'extra'", lambda ckpt: os.mkdir(os.path.join(ckpt, "extra"))),
    "old_format": (FormatError, "no config.json", _old_format),
}


def _all_g(d):
    for stage in d["stages"]:
        stage["kind"] = "G"


# How each broken config is made from a valid toy config dict: edit(d) changes it in place.
# Each once passed, or failed with something other than a ConfigError; an accepted one
# failed at init_params or predict, or never under an all-G pattern.
BROKEN_CONFIGS = {
    "zero_heads": lambda d: d["stages"][0].update(n_heads=0),  # was ZeroDivisionError
    "negative_heads": lambda d: d["stages"][3].update(n_heads=-4),
    "float_depth": lambda d: d["stages"][1].update(depth=1.0),
    "float_rate": lambda d: d["stages"][0].update(dilation_rates=[1, 2.0]),
    "bool_dim": lambda d: d["stages"][2].update(dim=True),
    "negative_input_size": lambda d: d.update(input_size=-32),
    "zero_classes": lambda d: d.update(num_classes=0),
    "stage_not_an_object": lambda d: d["stages"].__setitem__(2, 7),  # was TypeError
    "rates_not_a_list": lambda d: d["stages"][0].update(dilation_rates=2),  # was TypeError
    "unknown_key": lambda d: d.update(mlp_raito=2),
    "unknown_stage_key": lambda d: d["stages"][1].update(kernel=3),
    # Keys of config format 1 that format 2 retired: each is now an unknown key.
    "qkv_bias_a_string": lambda d: d.update(qkv_bias="false"),
    "unknown_edge_mode": lambda d: d.update(edge_mode="bogus"),
    "unknown_edge_mode_all_g": lambda d: (_all_g(d), d.update(edge_mode="bogus")),
    "even_kernel_w": lambda d: d["stages"][0].update(kernel_w=4),
    "even_kernel_w_all_g": lambda d: (_all_g(d), d["stages"][0].update(kernel_w=4)),
    "no_d_stage_rates": lambda d: d["stages"][1].update(dilation_rates=[]),
    "odd_stage1_dim": lambda d: d["stages"][0].update(dim=15, n_heads=1, dilation_rates=[1]),  # no tokenizer ramp
}


def broken_config(how: str) -> dict:
    """The toy config dict, broken as BROKEN_CONFIGS[how]."""
    d = model.config_to_dict(model.toy())
    BROKEN_CONFIGS[how](d)
    return d


def write_broken_checkpoint(root, how: str) -> str:
    """A toy checkpoint under root/ckpt broken as BROKEN_CHECKPOINTS[how], or whose
    config.json holds the toy config broken as BROKEN_CONFIGS[how]."""
    ckpt_dir = os.path.join(root, "ckpt")
    config = model.toy()
    model.save_checkpoint(ckpt_dir, config, model.init_params(config, seed=0))
    if how in BROKEN_CONFIGS:
        _rewrite_config(lambda d: json.dumps(broken_config(how)))(ckpt_dir)
    else:
        BROKEN_CHECKPOINTS[how][2](ckpt_dir)
    return ckpt_dir


STAGE4_TENSOR = "stage4.block0.mlp.fc1.weight"


def _rewrite(path, edit):
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(edit(blob))


# How each damaged tensor file is made from a valid one: damage(path) rewrites it.
DAMAGED_TENSORS = {
    "truncated": lambda path: _rewrite(path, lambda blob: blob[:-5]),
    "trailing_bytes": lambda path: _rewrite(path, lambda blob: blob + b"\0" * 8),
    "wrong_dtype": lambda path: dft1.write_tensor(path, dft1.read_tensor(path).astype(np.float64)),
    "wrong_shape": lambda path: dft1.write_tensor(path, dft1.read_tensor(path).T),
}


def write_damaged_checkpoint(root, how: str) -> str:
    """A toy checkpoint under root/ckpt whose STAGE4_TENSOR file is damaged as DAMAGED_TENSORS[how]."""
    ckpt_dir = os.path.join(root, "ckpt")
    config = model.toy()
    model.save_checkpoint(ckpt_dir, config, model.init_params(config, seed=0))
    DAMAGED_TENSORS[how](os.path.join(ckpt_dir, f"{STAGE4_TENSOR}.dft1"))
    return ckpt_dir


def counting_reads(monkeypatch) -> list[str]:
    """Wrap dft1.read_tensor; the returned list collects the base name of every file read."""
    reads, read_tensor = [], dft1.read_tensor

    def counted(path):
        reads.append(os.path.basename(path))
        return read_tensor(path)

    monkeypatch.setattr(dft1, "read_tensor", counted)
    return reads
