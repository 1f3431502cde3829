"""Run configuration: strict JSON schema with defaults and one rule per key.

Unknown keys are rejected with their full path; silent typos are
configuration bugs. Every key of the effective config, CLI flag overrides
included, is checked against its SCHEMA row before any file is read.
"""
from __future__ import annotations

import copy
import math

from .artifacts import read_json
from .errors import ConfigError

# The documented initial subgraph counts: partition.p0 when it is omitted and
# data.name is one of these. Other names require an explicit p0.
DATASET_P_DEFAULTS = {"SD": 8, "GBA": 8, "GLA": 64, "CA": 128, "WEST": 16, "EAST": 8, "ALL": 64}

# REQUIRED as a default means the key must be present
REQUIRED = object()

_NUM = (int, float)

# Rules by name: a number must also be finite when its row takes floats.
RULES = {
    ">= 0": lambda v: v >= 0,
    "> 0": lambda v: v > 0,
    ">= 1": lambda v: v >= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "two numbers in (0, 1)": lambda v: len(v) == 2 and all(
        isinstance(b, _NUM) and 0 < b < 1 for b in v
    ),
}

# (default, allowed types, rule). A rule is a key of RULES, a tuple of the
# allowed names, or None; a None value passes its rule.
SCHEMA = {
    "data": {
        "series": (REQUIRED, str, None),
        "graph": (None, (str, type(None)), None),
        "coords": (None, (str, type(None)), None),
        "format": ("bin", str, ("bin", "csv")),
        "name": ("dataset", str, None),
        "freq_minutes": (15, int, ">= 1"),
    },
    "graph": {
        "builder": ("file", str, ("file", "epsilon", "gaussian")),
        "epsilon": (None, (*_NUM, type(None)), "> 0"),
        "sigma": (None, (*_NUM, type(None)), "> 0"),
        "threshold": (0.0, _NUM, "in [0, 1)"),
    },
    "partition": {
        "p0": (None, (int, type(None)), ">= 1"),
        "balance_factor": (1.3, _NUM, ">= 1"),
        "seed": (0, int, ">= 0"),
    },
    "model": {
        "d_model": (512, int, ">= 1"),
        "l": (3, int, ">= 1"),
        "heads": (4, int, ">= 1"),
        "t": (96, int, ">= 1"),
        "f": (12, int, ">= 1"),
        "ffn_mult": (4, int, ">= 1"),
    },
    "train": {
        "lr": (1e-3, _NUM, ">= 0"),
        "betas": ([0.9, 0.999], (list, tuple), "two numbers in (0, 1)"),
        "eps": (1e-8, _NUM, "> 0"),
        "batch_size": (16, int, ">= 1"),
        "max_epochs": (50, int, ">= 1"),
        "patience": (10, int, ">= 1"),
        "grad_clip": (None, (*_NUM, type(None)), "> 0"),
        "seed": (0, int, ">= 0"),
    },
    "pe": {
        "k": (8, int, ">= 1"),
        "block_limit": (2000, int, ">= 1"),
    },
    "paths": {
        "out_dir": (REQUIRED, str, None),
    },
}


def check_section(section: str, values: dict):
    """ConfigError naming the first of `values` (key -> value) that is
    missing, of a type its SCHEMA[section] row does not allow, or outside
    that row's rule."""
    for key, value in values.items():
        default, types, rule = SCHEMA[section][key]
        if default is REQUIRED and value is None:
            raise ConfigError(f"missing required config key: {section}.{key}")
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"bad type for {section}.{key}: expected {types}, got {value!r}")
        if rule is None or value is None:
            continue
        if isinstance(rule, tuple):
            ok, rule = value in rule, "one of " + ", ".join(map(repr, rule))
        else:
            ok = (not isinstance(value, float) or math.isfinite(value)) and RULES[rule](value)
            rule = f"a finite number {rule}" if isinstance(1.5, types) else rule
        if not ok:
            raise ConfigError(f"{section}.{key} must be {rule}, got {value!r}")


def check_heads(d_model: int, heads: int):
    """ConfigError unless `heads` attention heads split d_model evenly."""
    if d_model % heads:
        raise ConfigError(f"d_model={d_model} must be divisible by heads={heads}")


def default_config() -> dict:
    """The full schema defaults (required fields present as None)."""
    return {
        section: {key: None if row[0] is REQUIRED else copy.deepcopy(row[0])
                  for key, row in keys.items()}
        for section, keys in SCHEMA.items()
    }


def validate_config(doc: dict, overrides: dict | None = None) -> dict:
    """Merge a raw document, then `overrides` (section -> key -> value), over
    the defaults, strictly, and check every key against its SCHEMA row."""
    effective = default_config()
    for part in (doc, overrides or {}):
        if not isinstance(part, dict):
            raise ConfigError("config root must be a JSON object")
        for section, content in part.items():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section: {section}")
            if not isinstance(content, dict):
                raise ConfigError(f"section {section} must be an object")
            for key, value in content.items():
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown config key: {section}.{key}")
                effective[section][key] = copy.deepcopy(value)
    for section, values in effective.items():
        check_section(section, values)
    pe = effective["pe"]
    if pe["block_limit"] < pe["k"] + 1:
        raise ConfigError(
            f"pe.block_limit must be at least k+1 = {pe['k'] + 1}, got {pe['block_limit']}"
        )
    check_heads(effective["model"]["d_model"], effective["model"]["heads"])
    if effective["partition"]["p0"] is None:
        name = effective["data"]["name"]
        if name in DATASET_P_DEFAULTS:
            effective["partition"]["p0"] = DATASET_P_DEFAULTS[name]
        else:
            raise ConfigError(
                "partition.p0 not set and dataset name has no documented default; "
                f"known names: {sorted(DATASET_P_DEFAULTS)}"
            )
    builder = effective["graph"]["builder"]
    needs = {"file": [("data", "graph")], "epsilon": [("data", "coords"), ("graph", "epsilon")],
             "gaussian": [("data", "coords"), ("graph", "sigma")]}[builder]
    for section, key in needs:
        if effective[section][key] is None:
            raise ConfigError(f"graph.builder={builder} requires {section}.{key}")
    return effective


def load_config(path, overrides: dict | None = None) -> dict:
    """The validated config at `path`, with `overrides` merged over it, so a
    CLI flag meets the same rule as its key. The overrides are checked
    against their SCHEMA rows before the file is read, so an error in one
    names the flag's key, not the file."""
    for section, values in (overrides or {}).items():
        check_section(section, values)
    return read_json(path, lambda doc: validate_config(doc, overrides))
