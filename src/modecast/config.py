"""Run configuration: flat `section.key = value` text, strictly parsed.

Grammar (documented in the README):

    # comment lines and blank lines are ignored
    key = value            e.g.  modes = 10
    section.key = value    e.g.  vmd.alpha = 2000

Unknown keys are errors, so a typo never silently falls back to a default.
Booleans are `true`/`false`, lists are comma-separated (`horizons = 10,20`).
`modes` has no default: it must come from a CLI flag or the config file.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from . import garch, neural, vmd
from .data import read_text
from .errors import ConfigError
from .pipeline import PipelineConfig
from .series import SplitSpec


def _parse_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


@dataclass(frozen=True)
class RunConfig:
    modes: int | None = None
    split_fraction: float = 0.85
    vmd_alpha: float = 2000.0
    vmd_tau: float = 0.0
    vmd_tol: float = 1e-7
    vmd_max_iter: int = 500
    vmd_init_omega: str = "uniform"
    vmd_mirror: bool = True
    vmd_dc_mode: bool = False
    vmd_seed: int = 0
    garch_k: int = 10
    garch_l: int = 10
    garch_max_iter: int | None = None
    network_cell: str = "lstm"
    network_layers: int = 2
    network_hidden: int = 64
    network_dropout: float = 0.2
    network_seq_len: int = 50
    train_epochs: int = 100
    train_batch: int = 32
    train_lr: float = 1e-3
    train_seed: int = 0
    horizons: tuple[int, ...] = (10,)
    retrain_every: int = 0


# config-file key -> (dataclass field, parser)
_SCHEMA = {
    "modes": ("modes", int),
    "split.fraction": ("split_fraction", float),
    "vmd.alpha": ("vmd_alpha", float),
    "vmd.tau": ("vmd_tau", float),
    "vmd.tol": ("vmd_tol", float),
    "vmd.max_iter": ("vmd_max_iter", int),
    "vmd.init_omega": ("vmd_init_omega", str),
    "vmd.mirror": ("vmd_mirror", _parse_bool),
    "vmd.dc_mode": ("vmd_dc_mode", _parse_bool),
    "vmd.seed": ("vmd_seed", int),
    "garch.k": ("garch_k", int),
    "garch.l": ("garch_l", int),
    "garch.max_iter": ("garch_max_iter", int),
    "network.cell": ("network_cell", str),
    "network.layers": ("network_layers", int),
    "network.hidden": ("network_hidden", int),
    "network.dropout": ("network_dropout", float),
    "network.seq_len": ("network_seq_len", int),
    "train.epochs": ("train_epochs", int),
    "train.batch": ("train_batch", int),
    "train.lr": ("train_lr", float),
    "train.seed": ("train_seed", int),
    "horizons": ("horizons", _parse_int_list),
    "retrain_every": ("retrain_every", int),
}

_FIELD_TO_KEY = {field: key for key, (field, _) in _SCHEMA.items()}


def parse_config_text(text: str) -> RunConfig:
    """Parse config text over the defaults; unknown keys are errors."""
    updates: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        field_name, parser = _SCHEMA[key]
        try:
            updates[field_name] = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for '{key}': {exc}") from exc
    return RunConfig(**updates)


def load_config(path) -> RunConfig:
    return parse_config_text(read_text(path))


def render_config(cfg: RunConfig, header_comments: list[str] | None = None) -> str:
    """Emit text that parse_config_text reads back to an equal RunConfig."""
    lines = [f"# {comment}" for comment in (header_comments or [])]
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        key = _FIELD_TO_KEY[f.name]
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, tuple):
            text = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            text = f"{value:.17g}"
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def require_modes(cfg: RunConfig) -> int:
    if cfg.modes is None:
        raise ConfigError("the number of modes is required: pass --modes or set 'modes' in the config")
    return cfg.modes


def cell_kind(name: str) -> neural.CellKind:
    try:
        return neural.CellKind(name.lower())
    except ValueError:
        raise ConfigError(f"unknown cell '{name}', expected one of "
                          f"{sorted(k.value for k in neural.CellKind)}") from None


def to_pipeline_config(cfg: RunConfig) -> PipelineConfig:
    """Materialize module configs; their validators own the invariants."""
    try:
        vmd_cfg = vmd.VmdConfig(
            n_modes=require_modes(cfg), alpha=cfg.vmd_alpha, tau=cfg.vmd_tau,
            tol=cfg.vmd_tol, max_iter=cfg.vmd_max_iter, init_omega=cfg.vmd_init_omega,
            seed=cfg.vmd_seed, mirror=cfg.vmd_mirror, dc_mode=cfg.vmd_dc_mode,
        )
        spec = garch.GarchSpec(k=cfg.garch_k, l=cfg.garch_l)
        net = neural.NetworkConfig(
            cell=cell_kind(cfg.network_cell), layers=cfg.network_layers,
            hidden=cfg.network_hidden, input_features=2,
            dropout_rate=cfg.network_dropout, seed=cfg.train_seed,
        )
        train = neural.TrainConfig(epochs=cfg.train_epochs, batch_size=cfg.train_batch,
                                   lr=cfg.train_lr, seed=cfg.train_seed)
        split = SplitSpec(train_fraction=cfg.split_fraction)
        options = garch.FitOptions(max_iter=cfg.garch_max_iter)
    except ConfigError:
        raise
    except Exception as exc:  # invariant violations from the owning modules
        raise ConfigError(str(exc)) from exc
    return PipelineConfig(vmd=vmd_cfg, garch=spec, network=net, train=train,
                          split=split, seq_len=cfg.network_seq_len,
                          garch_options=options, retrain_every=cfg.retrain_every)
