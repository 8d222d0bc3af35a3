"""Run configuration: flat `section.key = value` text, strictly parsed.

Grammar (documented in the README):

    # comment lines and blank lines are ignored
    key = value            e.g.  modes = 10
    section.key = value    e.g.  vmd.alpha = 2000

Unknown keys are errors, so a typo never silently falls back to a default.
Booleans are `true`/`false`, lists are comma-separated (`horizons = 10,20`).

One table, `_KEYS`, gives each key its parser and the `PipelineConfig`
fields it sets.  A config file and the CLI flags both give a dict of the
keys they set (the settings); `to_pipeline_config` applies it over the
dataclasses' own defaults, the only defaults there are, and `render_config`
reads every key back from the configuration that ran.  `modes` has no
default: it must come from a CLI flag or the config file.  `horizons` is no
pipeline field, so its default, `DEFAULT_HORIZONS`, is kept here.
"""

from __future__ import annotations

from dataclasses import replace
from enum import Enum
from functools import reduce

from . import neural, vmd
from .data import read_text
from .errors import ConfigError, ModecastError
from .pipeline import PipelineConfig

DEFAULT_HORIZONS = (10,)


def _parse_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    values = tuple(int(part) for part in raw.split(",") if part.strip())
    if not values:
        raise ValueError(f"expected comma-separated integers, got {raw!r}")
    return values


def cell_kind(name: str) -> neural.CellKind:
    try:
        return neural.CellKind(name.lower())
    except ValueError:
        raise ConfigError(f"unknown cell '{name}', expected one of "
                          f"{sorted(k.value for k in neural.CellKind)}") from None


# config-file key -> (parser, the dotted `PipelineConfig` fields it sets);
# the manifest lists the keys in this order
_KEYS = {
    "modes": (int, "vmd.n_modes"),
    "split.fraction": (float, "split.train_fraction"),
    "vmd.alpha": (float, "vmd.alpha"),
    "vmd.tau": (float, "vmd.tau"),
    "vmd.tol": (float, "vmd.tol"),
    "vmd.max_iter": (int, "vmd.max_iter"),
    "vmd.init_omega": (str, "vmd.init_omega"),
    "vmd.mirror": (_parse_bool, "vmd.mirror"),
    "vmd.dc_mode": (_parse_bool, "vmd.dc_mode"),
    "vmd.seed": (int, "vmd.seed"),
    "garch.k": (int, "garch.k"),
    "garch.l": (int, "garch.l"),
    "garch.max_iter": (int, "garch_options.max_iter"),
    "network.cell": (cell_kind, "network.cell"),
    "network.layers": (int, "network.layers"),
    "network.hidden": (int, "network.hidden"),
    "network.dropout": (float, "network.dropout_rate"),
    "network.seq_len": (int, "seq_len"),
    "train.epochs": (int, "train.epochs"),
    "train.batch": (int, "train.batch_size"),
    "train.lr": (float, "train.lr"),
    "train.seed": (int, "train.seed", "network.seed"),
    "horizons": (_parse_int_list,),  # no pipeline field
    "retrain_every": (int, "retrain_every"),
}


def parse_setting(key: str, raw: str, name: str | None = None):
    """`raw` read by the parser of `key`; a bad value raises `ConfigError`
    naming `name` (default: the key)."""
    try:
        return _KEYS[key][0](raw)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad value for {name or repr(key)}: {exc}") from exc


def parse_config_text(text: str) -> dict[str, object]:
    """The settings the text gives, key by key; unknown keys are errors."""
    settings: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        try:
            settings[key] = parse_setting(key, raw.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return settings


def load_config(path) -> dict[str, object]:
    return parse_config_text(read_text(path))


def _set(obj, path: str, value):
    head, _, rest = path.partition(".")
    return replace(obj, **{head: _set(getattr(obj, head), rest, value) if rest else value})


def format_value(value) -> str:
    """A setting's value as the config grammar writes it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, Enum):
        return value.value
    return str(value)


def render_config(cfg: PipelineConfig, horizons: tuple[int, ...],
                  header_comments: list[str] | None = None) -> str:
    """Every key's value in `cfg` (and `horizons`), in table order; for a
    `cfg` that `to_pipeline_config` made, text that it reads back to `cfg`."""
    lines = [f"# {comment}" for comment in (header_comments or [])]
    for key in _KEYS:
        value = horizons if key == "horizons" else setting_value(cfg, key)
        if value is not None:
            lines.append(f"{key} = {format_value(value)}")
    return "\n".join(lines) + "\n"


def setting_value(cfg: PipelineConfig, key: str):
    """The value `cfg` holds for `key`; None for `horizons`, no pipeline field."""
    paths = _KEYS[key][1:]
    return reduce(getattr, paths[0].split("."), cfg) if paths else None


def to_pipeline_config(settings: dict[str, object]) -> PipelineConfig:
    """The dataclasses' defaults with every setting applied; the owning
    modules' validators check each value."""
    if "modes" not in settings:
        raise ConfigError("the number of modes is required: pass --modes or set 'modes' in the config")
    try:
        cfg = PipelineConfig(vmd=vmd.VmdConfig(n_modes=settings["modes"]))
        for key, value in settings.items():
            for path in _KEYS[key][1:]:
                cfg = _set(cfg, path, value)
    except ConfigError:
        raise
    except (ValueError, ModecastError) as exc:  # invariant violations from the owning modules
        raise ConfigError(str(exc)) from exc
    return cfg
