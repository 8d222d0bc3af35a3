"""Run configuration: flat `section.key = value` text, strictly parsed.

Grammar (documented in the README):

    # comment lines and blank lines are ignored
    key = value            e.g.  modes = 10
    section.key = value    e.g.  vmd.alpha = 2000

Unknown keys are errors, so a typo never silently falls back to a default.
Booleans are `true`/`false`, lists are comma-separated (`horizons = 10,20`).

One table, `_KEYS`, gives each key its parser and the `PipelineConfig`
field it sets; every value a `PipelineConfig` holds is one key's.  A config
file and the CLI flags both give a dict of the keys they set (the
settings); `to_pipeline_config` applies it over the dataclasses' own
defaults, the only defaults there are, and `settings_of` reads every key
back from a configuration.  That pair is the one encoding of a run's
settings: `render_config` writes the manifest from it, and a model
directory's header stores it (`persist`).  `modes` has no default: it must
come from a CLI flag or the config file.  `horizons` is no pipeline field,
so its default, `DEFAULT_HORIZONS`, is kept here.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from enum import Enum

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


# config-file key -> (parser, the `PipelineConfig` field it sets: a section's
# "section.field" or a field of its own; None for `horizons`); the manifest
# lists the keys in this order
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
    "garch.max_iter": (int, "garch.max_iter"),
    "network.cell": (cell_kind, "network.cell"),
    "network.layers": (int, "network.layers"),
    "network.hidden": (int, "network.hidden"),
    "network.dropout": (float, "network.dropout_rate"),
    "network.seq_len": (int, "seq_len"),
    "train.epochs": (int, "train.epochs"),
    "train.batch": (int, "train.batch_size"),
    "train.lr": (float, "train.lr"),
    "train.seed": (int, "train.seed"),
    "horizons": (_parse_int_list, None),
    "retrain_every": (int, "retrain_every"),
}
# every key that sets a field, in table order -> (section, field name); the
# section is "" for a field of `PipelineConfig` itself
_FIELDS = {key: tuple(path.rpartition(".")[::2]) for key, (_, path) in _KEYS.items() if path}
PIPELINE_KEYS = tuple(_FIELDS)  # every key but `horizons`
# each section -> (its dataclass, the default of each of its fields); `vmd`
# has no default (`modes` is required), so its class's own defaults apply
_SECTIONS = {"vmd": (vmd.VmdConfig, {})}
_SECTIONS.update({f.name: (type(f.default), {g.name: getattr(f.default, g.name)
                                             for g in fields(f.default)})
                  for f in fields(PipelineConfig) if is_dataclass(f.default)})


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
    """Every key's value in `cfg` (`settings_of`) and `horizons`, in table
    order; text that `to_pipeline_config` reads back to `cfg`."""
    values = {**settings_of(cfg), "horizons": horizons}
    lines = [f"# {comment}" for comment in (header_comments or [])]
    lines += [f"{key} = {format_value(values[key])}" for key in _KEYS if values[key] is not None]
    return "\n".join(lines) + "\n"


def settings_of(cfg: PipelineConfig) -> dict[str, object]:
    """The value `cfg` holds for every key but `horizons`, in table order;
    None only for an unset `garch.max_iter`."""
    return {key: getattr(getattr(cfg, section), name) if section else getattr(cfg, name)
            for key, (section, name) in _FIELDS.items()}


# the keys a configuration may leave unset (None, a model header's null): those
# whose default is None; `modes` has no default, so it is never unset
UNSET_KEYS = frozenset(key for key, value in settings_of(
    PipelineConfig(vmd=vmd.VmdConfig(n_modes=1))).items() if value is None)


def to_pipeline_config(settings: dict[str, object]) -> PipelineConfig:
    """The dataclasses' defaults with every setting applied, each section a
    set builds in one call from its defaults and its settings; the owning
    modules' validators check each value."""
    if "modes" not in settings:
        raise ConfigError("the number of modes is required: pass --modes or set 'modes' in the config")
    sections: dict[str, dict] = {}
    for key, value in settings.items():
        if key in _FIELDS:
            section, name = _FIELDS[key]
            sections.setdefault(section, {})[name] = value
    own = sections.pop("", {})
    try:
        return PipelineConfig(**own, **{section: cls(**{**defaults, **sections[section]})
                                        for section, (cls, defaults) in _SECTIONS.items()
                                        if section in sections})
    except ConfigError:
        raise
    except (ValueError, ModecastError) as exc:  # invariant violations from the owning modules
        raise ConfigError(str(exc)) from exc
