"""Shared fixtures-by-function for the heavier test modules."""

import json
import os
import shutil
import tracemalloc

import numpy as np

from dilatevit import dft1, model
from dilatevit.autograd import Parameter
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


def _first_file_named(name):
    """Point the first tensor at ``name``, or at the outside copy when name is None."""

    def edit(manifest, outside):
        manifest["files"][sorted(manifest["files"])[0]] = name or outside
        return json.dumps(manifest)

    return edit


# How each broken manifest is made from a valid one: edit(manifest, outside) -> text.
BROKEN_MANIFESTS = {
    "not_json": lambda m, outside: json.dumps(m)[:-9],
    "not_an_object": lambda m, outside: json.dumps([m]),
    "no_files": lambda m, outside: json.dumps({k: v for k, v in m.items() if k != "files"}),
    "no_config": lambda m, outside: json.dumps({k: v for k, v in m.items() if k != "config"}),
    "parent_dir_file": _first_file_named("../outside.dft1"),
    "absolute_file": _first_file_named(None),
    "dotdot_file": _first_file_named(".."),
    "missing_file": _first_file_named("absent.dft1"),
    "no_dtype": lambda m, outside: json.dumps({k: v for k, v in m.items() if k != "dtype"}),
    "unknown_dtype": lambda m, outside: json.dumps({**m, "dtype": "f16"}),
    "dtype_not_a_string": lambda m, outside: json.dumps({**m, "dtype": ["f32"]}),
    "dtype_disagrees_with_tensors": lambda m, outside: json.dumps({**m, "dtype": "f64"}),
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
    """A toy checkpoint under root/ckpt whose manifest is broken as BROKEN_MANIFESTS[how],
    or whose config is broken as BROKEN_CONFIGS[how]."""
    ckpt_dir = os.path.join(root, "ckpt")
    config = model.toy()
    model.save_checkpoint(ckpt_dir, config, model.init_params(config, seed=0))
    path = os.path.join(ckpt_dir, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    # A valid tensor next to the checkpoint, so only the name check can refuse reading it.
    outside = os.path.join(root, "outside.dft1")
    shutil.copyfile(os.path.join(ckpt_dir, manifest["files"][sorted(manifest["files"])[0]]), outside)
    if how in BROKEN_CONFIGS:
        manifest["config"] = broken_config(how)
        text = json.dumps(manifest)
    else:
        text = BROKEN_MANIFESTS[how](manifest, outside)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
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
