"""Save/load a fitted forecaster as a directory of JSON + checkpoint files.

Floats go through JSON as shortest-round-trip decimals, so a reload restores
every array bit-for-bit and a reloaded forecaster forecasts identically.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from . import garch, neural, vmd
from .errors import CorruptModel
from .pipeline import EnsembleForecaster, ModeModel, PipelineConfig, Variant
from .series import MinMaxScaler, SplitSpec


def _garch_fit_to_dict(fit: garch.GarchFit) -> dict:
    return {
        "alpha0": fit.params.alpha0,
        "alphas": fit.params.alphas.tolist(),
        "betas": fit.params.betas.tolist(),
        "sigma2_path": fit.sigma2_path.tolist(),
        "residuals": fit.residuals.tolist(),
        "log_likelihood": fit.log_likelihood,
        "mean": fit.mean,
        "converged": fit.converged,
        "used_differencing": fit.used_differencing,
        "used_rolling_fallback": fit.used_rolling_fallback,
    }


def _garch_fit_from_dict(d: dict) -> garch.GarchFit:
    return garch.GarchFit(
        params=garch.GarchParams(d["alpha0"], np.array(d["alphas"]), np.array(d["betas"])),
        sigma2_path=np.array(d["sigma2_path"]),
        residuals=np.array(d["residuals"]),
        log_likelihood=d["log_likelihood"],
        mean=d["mean"],
        converged=d["converged"],
        used_differencing=d["used_differencing"],
        used_rolling_fallback=d["used_rolling_fallback"],
    )


def _config_to_dict(cfg: PipelineConfig) -> dict:
    return {
        "vmd": {"n_modes": cfg.vmd.n_modes, "alpha": cfg.vmd.alpha, "tau": cfg.vmd.tau,
                "tol": cfg.vmd.tol, "max_iter": cfg.vmd.max_iter,
                "init_omega": cfg.vmd.init_omega, "seed": cfg.vmd.seed,
                "mirror": cfg.vmd.mirror, "dc_mode": cfg.vmd.dc_mode},
        "garch": {"k": cfg.garch.k, "l": cfg.garch.l},
        "garch_options": {"max_iter": cfg.garch_options.max_iter,
                          "xatol": cfg.garch_options.xatol, "fatol": cfg.garch_options.fatol,
                          "adf_lags": cfg.garch_options.adf_lags,
                          "allow_differencing": cfg.garch_options.allow_differencing},
        "network": {"cell": cfg.network.cell.value, "layers": cfg.network.layers,
                    "hidden": cfg.network.hidden, "input_features": cfg.network.input_features,
                    "dropout_rate": cfg.network.dropout_rate, "seed": cfg.network.seed},
        "train": {"epochs": cfg.train.epochs, "batch_size": cfg.train.batch_size,
                  "lr": cfg.train.lr, "seed": cfg.train.seed, "clip_norm": cfg.train.clip_norm},
        "split_fraction": cfg.split.train_fraction,
        "seq_len": cfg.seq_len,
        "retrain_every": cfg.retrain_every,
    }


def _settings(cls, d: dict):
    """`cls(**d)`, where `d` must name every field: a missing entry must not
    load silently as the field's default."""
    names = {f.name for f in dataclasses.fields(cls)}
    if set(d) != names:
        raise KeyError(f"{cls.__name__} entries {sorted(set(d) ^ names)}")
    return cls(**d)


def _config_from_dict(d: dict) -> PipelineConfig:
    return PipelineConfig(
        vmd=_settings(vmd.VmdConfig, d["vmd"]),
        garch=_settings(garch.GarchSpec, d["garch"]),
        garch_options=_settings(garch.FitOptions, d["garch_options"]),
        network=neural.NetworkConfig(cell=neural.CellKind(d["network"]["cell"]),
                                     layers=d["network"]["layers"], hidden=d["network"]["hidden"],
                                     input_features=d["network"]["input_features"],
                                     dropout_rate=d["network"]["dropout_rate"],
                                     seed=d["network"]["seed"]),
        train=_settings(neural.TrainConfig, d["train"]),
        split=SplitSpec(train_fraction=d["split_fraction"]),
        seq_len=d["seq_len"],
        retrain_every=d["retrain_every"],
    )


def save_forecaster(forecaster: EnsembleForecaster, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": "modecast-forecaster v1",
        "variant": forecaster.variant.value,
        "cell": forecaster.cell.value,
        "train_size": forecaster.train_size,
        "config": _config_to_dict(forecaster.config),
        "mode_values": forecaster.mode_values.tolist(),
        "modes": None if forecaster.modes is None else {
            "omegas": forecaster.modes.omegas.tolist(),
            "residual": forecaster.modes.residual.tolist(),
            "iterations": forecaster.modes.iterations,
            "final_delta": forecaster.modes.final_delta,
        },
        "mode_models": [],
    }
    for model in forecaster.mode_models:
        entry = {
            "mode_index": model.mode_index,
            "scaler": {"lo": model.scaler.lo, "hi": model.scaler.hi},
            "vol_scaler": None if model.vol_scaler is None
                          else {"lo": model.vol_scaler.lo, "hi": model.vol_scaler.hi},
            "vol_kind": model.vol_kind,
            "garch": None if model.garch is None else _garch_fit_to_dict(model.garch),
            "checkpoint": f"net_mode_{model.mode_index}.txt",
        }
        neural.save_checkpoint(model.network, out / entry["checkpoint"])
        manifest["mode_models"].append(entry)
    (out / "forecaster.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return out


def load_forecaster(model_dir) -> EnsembleForecaster:
    root = Path(model_dir)
    try:
        manifest = json.loads((root / "forecaster.json").read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CorruptModel(f"unreadable forecaster.json in {root}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != "modecast-forecaster v1":
        raise CorruptModel(f"unrecognized forecaster directory: {root}")
    try:
        return _forecaster_from_manifest(manifest, root)
    except CorruptModel:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # missing or mistyped entries
        raise CorruptModel(f"incomplete forecaster.json in {root}: {exc!r}") from exc


def _forecaster_from_manifest(manifest: dict, root: Path) -> EnsembleForecaster:
    cfg = _config_from_dict(manifest["config"])
    mode_values = np.array(manifest["mode_values"])
    modes = None
    if manifest["modes"] is not None:
        modes = vmd.ModeSet(
            modes=mode_values,
            omegas=np.array(manifest["modes"]["omegas"]),
            residual=np.array(manifest["modes"]["residual"]),
            iterations=manifest["modes"]["iterations"],
            final_delta=manifest["modes"]["final_delta"],
        )
    models = []
    for entry in manifest["mode_models"]:
        vol_scaler = entry["vol_scaler"]
        models.append(ModeModel(
            mode_index=entry["mode_index"],
            scaler=MinMaxScaler(**entry["scaler"]),
            vol_scaler=None if vol_scaler is None else MinMaxScaler(**vol_scaler),
            garch=None if entry["garch"] is None else _garch_fit_from_dict(entry["garch"]),
            network=neural.load_checkpoint(root / entry["checkpoint"]),
            vol_kind=entry["vol_kind"],
        ))
    return EnsembleForecaster(
        variant=Variant(manifest["variant"]),
        cell=neural.CellKind(manifest["cell"]),
        config=cfg,
        modes=modes,
        mode_values=mode_values,
        mode_models=tuple(models),
        train_size=manifest["train_size"],
    )
