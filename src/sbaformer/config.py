"""Run configuration: strict JSON schema with defaults.

Unknown keys are rejected with their full path; silent typos are
configuration bugs. Scalar CLI flags may override fields after validation.

Per-dataset initial subgraph counts (the partition.p0 default when the
dataset name matches): SD 8, GBA 8, GLA 64, CA 128, WEST 16, EAST 8,
ALL 64. Unknown names require an explicit p0.
"""
from __future__ import annotations

import copy

from .artifacts import read_json
from .errors import ConfigError

DATASET_P_DEFAULTS = {
    "SD": 8,
    "GBA": 8,
    "GLA": 64,
    "CA": 128,
    "WEST": 16,
    "EAST": 8,
    "ALL": 64,
}

# (default, allowed types); REQUIRED means the key must be present
REQUIRED = object()

_NUM = (int, float)

SCHEMA = {
    "data": {
        "series": (REQUIRED, str),
        "graph": (None, (str, type(None))),
        "coords": (None, (str, type(None))),
        "format": ("bin", str),
        "name": ("dataset", str),
        "freq_minutes": (15, int),
    },
    "graph": {
        "builder": ("file", str),
        "epsilon": (None, (*_NUM, type(None))),
        "sigma": (None, (*_NUM, type(None))),
        "threshold": (0.0, _NUM),
    },
    "partition": {
        "p0": (None, (int, type(None))),
        "balance_factor": (1.3, _NUM),
        "seed": (0, int),
    },
    "model": {
        "d_model": (512, int),
        "l": (3, int),
        "heads": (4, int),
        "t": (96, int),
        "f": (12, int),
        "ffn_mult": (4, int),
    },
    "train": {
        "lr": (1e-3, _NUM),
        "betas": ([0.9, 0.999], list),
        "eps": (1e-8, _NUM),
        "batch_size": (16, int),
        "max_epochs": (50, int),
        "patience": (10, int),
        "grad_clip": (None, (*_NUM, type(None))),
        "seed": (0, int),
    },
    "pe": {
        "k": (8, int),
        "block_limit": (2000, int),
    },
    "paths": {
        "out_dir": (REQUIRED, str),
    },
}


def default_config() -> dict:
    """The full schema defaults (required fields present as None)."""
    out = {}
    for section, keys in SCHEMA.items():
        out[section] = {
            key: (None if default is REQUIRED else copy.deepcopy(default))
            for key, (default, _) in keys.items()
        }
    return out


def validate_config(doc: dict) -> dict:
    """Merge a raw document over the defaults, strictly."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    effective = default_config()
    for section, content in doc.items():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section: {section}")
        if not isinstance(content, dict):
            raise ConfigError(f"section {section} must be an object")
        for key, value in content.items():
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown config key: {section}.{key}")
            _, types = SCHEMA[section][key]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(
                    f"bad type for {section}.{key}: expected {types}, got {value!r}"
                )
            effective[section][key] = copy.deepcopy(value)
    for section, keys in SCHEMA.items():
        for key, (default, _) in keys.items():
            if default is REQUIRED and effective[section][key] is None:
                raise ConfigError(f"missing required config key: {section}.{key}")
    for section in ("partition", "train"):
        if effective[section]["seed"] < 0:
            raise ConfigError(f"{section}.seed must be >= 0, got {effective[section]['seed']}")
    if effective["partition"]["p0"] is None:
        name = effective["data"]["name"]
        if name in DATASET_P_DEFAULTS:
            effective["partition"]["p0"] = DATASET_P_DEFAULTS[name]
        else:
            raise ConfigError(
                "partition.p0 not set and dataset name has no documented default; "
                f"known names: {sorted(DATASET_P_DEFAULTS)}"
            )
    return effective


def load_config(path) -> dict:
    return read_json(path, validate_config)
