"""Save/load a fitted forecaster as a directory of two files.

`forecaster.json` is the header: the format tag, settings and scalars.
`arrays.npz` is one uncompressed `np.savez` archive of float64 arrays:
`mode_values`, `omegas`, `residual`, and per mode `mode_<n>.flat` (the
network's parameter vector) and the GARCH `alphas`, `betas`, `sigma2_path`
and `residuals`.  The arrays are written first and the header last, so a
directory whose header exists has its arrays.  A reload restores every value
bit for bit, so a reloaded forecaster forecasts identically.

A model directory is outside input: the archive is read with
`allow_pickle=False`, and any missing, extra, truncated, foreign, mistyped or
misshapen entry raises `CorruptModel`.  The v1 layout (JSON arrays plus one
text checkpoint `net_mode_<n>.txt` per network) is not read; saving into a v1
directory rewrites it and deletes those checkpoints.
"""

from __future__ import annotations

import dataclasses
import json
import re
import zipfile
import zlib
from pathlib import Path

import numpy as np

from . import garch, neural, vmd
from .errors import CorruptModel, ModecastError
from .pipeline import EnsembleForecaster, ModeModel, PipelineConfig, Variant
from .series import MinMaxScaler, SplitSpec

FORMAT = "modecast-forecaster v2"
V1_FORMAT = "modecast-forecaster v1"
V1_CHECKPOINT = re.compile(r"net_mode_\d+\.txt")
HEADER = "forecaster.json"
ARRAYS = "arrays.npz"
_GARCH_ARRAYS = ("alphas", "betas", "sigma2_path", "residuals")
_GARCH_SCALARS = ("mean", "log_likelihood", "converged", "used_differencing",
                  "used_rolling_fallback")
_MODE_SET_SCALARS = ("iterations", "final_delta", "converged")


def _fields(obj, names=None) -> dict | None:
    """The named attributes of `obj` (default: every dataclass field); None stays None."""
    if obj is None:
        return None
    return {n: getattr(obj, n) for n in names or (f.name for f in dataclasses.fields(obj))}


def _settings(cls, d: dict):
    """`cls(**d)`, where `d` must name every field: a missing entry must not
    load silently as the field's default."""
    names = {f.name for f in dataclasses.fields(cls)}
    if set(d) != names:
        raise KeyError(f"{cls.__name__} entries {sorted(set(d) ^ names)}")
    return cls(**d)


def _network_to_dict(cfg: neural.NetworkConfig) -> dict:
    return {**_fields(cfg), "cell": cfg.cell.value}


def _network_from_dict(d: dict) -> neural.NetworkConfig:
    return _settings(neural.NetworkConfig, {**d, "cell": neural.CellKind(d["cell"])})


def _config_to_dict(cfg: PipelineConfig) -> dict:
    return {
        "vmd": _fields(cfg.vmd),
        "garch": _fields(cfg.garch),
        "garch_options": _fields(cfg.garch_options),
        "network": _network_to_dict(cfg.network),
        "train": _fields(cfg.train),
        "split_fraction": cfg.split.train_fraction,
        "seq_len": cfg.seq_len,
        "retrain_every": cfg.retrain_every,
    }


def _config_from_dict(d: dict) -> PipelineConfig:
    return PipelineConfig(
        vmd=_settings(vmd.VmdConfig, d["vmd"]),
        garch=_settings(garch.GarchSpec, d["garch"]),
        garch_options=_settings(garch.FitOptions, d["garch_options"]),
        network=_network_from_dict(d["network"]),
        train=_settings(neural.TrainConfig, d["train"]),
        split=SplitSpec(train_fraction=d["split_fraction"]),
        seq_len=d["seq_len"],
        retrain_every=d["retrain_every"],
    )


def _remove_v1_checkpoints(out: Path) -> None:
    """Delete the `net_mode_<n>.txt` checkpoints of a v1 model saved in `out`.

    Only a readable v1 header marks them as that model's; every other file,
    and every file of a directory without one, is left alone."""
    try:
        header = json.loads((out / HEADER).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return
    if not (isinstance(header, dict) and header.get("format") == V1_FORMAT):
        return
    for path in out.iterdir():
        if V1_CHECKPOINT.fullmatch(path.name) and path.is_file():
            path.unlink()


def save_forecaster(forecaster: EnsembleForecaster, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _remove_v1_checkpoints(out)
    arrays = {"mode_values": forecaster.mode_values}
    modes = forecaster.modes
    if modes is not None:
        arrays.update(omegas=modes.omegas, residual=modes.residual)
    entries = []
    for n, model in enumerate(forecaster.mode_models, start=1):
        arrays[f"mode_{n}.flat"] = model.network.flat
        fit = model.garch
        if fit is not None:
            values = (fit.params.alphas, fit.params.betas, fit.sigma2_path, fit.residuals)
            arrays.update({f"mode_{n}.{k}": v for k, v in zip(_GARCH_ARRAYS, values)})
        entries.append({
            "mode_index": model.mode_index,
            "scaler": _fields(model.scaler),
            "vol_scaler": _fields(model.vol_scaler),
            "vol_kind": model.vol_kind,
            "network": _network_to_dict(model.network.config),
            "garch": None if fit is None else {"alpha0": fit.params.alpha0,
                                               **_fields(fit, _GARCH_SCALARS)},
        })
    header = {
        "format": FORMAT,
        "variant": forecaster.variant.value,
        "cell": forecaster.cell.value,
        "train_size": forecaster.train_size,
        "config": _config_to_dict(forecaster.config),
        "modes": _fields(modes, _MODE_SET_SCALARS),
        "mode_models": entries,
    }
    with open(out / ARRAYS, "wb") as fh:
        np.savez(fh, **arrays)
    (out / HEADER).write_text(json.dumps(header, indent=1), encoding="utf-8")
    return out


def load_forecaster(model_dir) -> EnsembleForecaster:
    root = Path(model_dir)
    try:
        header = json.loads((root / HEADER).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CorruptModel(f"unreadable {HEADER} in {root}: {exc}") from exc
    tag = header.get("format") if isinstance(header, dict) else None
    if tag == V1_FORMAT:
        raise CorruptModel(f"{root} holds a v1 forecaster, which is no longer read; "
                           "re-run `modecast train` to write it again")
    if tag != FORMAT:
        raise CorruptModel(f"unrecognized forecaster directory: {root}")
    arrays = _read_arrays(root / ARRAYS)
    try:
        return _forecaster_from(header, arrays)
    except CorruptModel:
        raise
    except (KeyError, IndexError, TypeError, ValueError, ModecastError) as exc:
        raise CorruptModel(f"incomplete {HEADER} in {root}: {exc!r}") from exc


def _read_arrays(path: Path) -> dict[str, np.ndarray]:
    """Every array of the archive; nothing is unpickled.

    The file is opened here, not by `np.load`, which leaves its own handle
    open when the archive's directory is unreadable."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            return {name: npz[name] for name in npz.files}
    except (OSError, EOFError, TypeError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        # TypeError: a bare .npy file loads as one array, not as an archive
        raise CorruptModel(f"unreadable {path}: {exc!r}") from exc


def _array(arrays: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    """`arrays[name]`, which must be float64 of `shape` (-1 matches any length)."""
    a = arrays[name]
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == len(shape)
            and all(want in (-1, got) for want, got in zip(shape, a.shape))):
        raise CorruptModel(f"{ARRAYS}: {name} is not a float64 array of shape {shape}")
    return a


def _forecaster_from(header: dict, arrays: dict[str, np.ndarray]) -> EnsembleForecaster:
    cfg = _config_from_dict(header["config"])
    entries = header["mode_models"]
    meta = header["modes"]
    expected = {"mode_values"} | (set() if meta is None else {"omegas", "residual"})
    for n, entry in enumerate(entries, start=1):
        expected.add(f"mode_{n}.flat")
        if entry["garch"] is not None:
            expected.update(f"mode_{n}.{name}" for name in _GARCH_ARRAYS)
    if set(arrays) != expected:
        raise CorruptModel(f"{ARRAYS}: missing {sorted(expected - set(arrays))}, "
                           f"unexpected {sorted(set(arrays) - expected)}")

    mode_values = _array(arrays, "mode_values", (len(entries), -1))
    t_len = mode_values.shape[1]
    modes = None
    if meta is not None:
        modes = vmd.ModeSet(modes=mode_values,
                            omegas=_array(arrays, "omegas", (len(entries),)),
                            residual=_array(arrays, "residual", (t_len,)),
                            **{k: meta[k] for k in _MODE_SET_SCALARS})
    models = []
    for n, entry in enumerate(entries, start=1):
        net_cfg = _network_from_dict(entry["network"])
        flat = _array(arrays, f"mode_{n}.flat", (neural.parameter_count(net_cfg),))
        models.append(ModeModel(
            mode_index=entry["mode_index"],
            scaler=_settings(MinMaxScaler, entry["scaler"]),
            vol_scaler=None if entry["vol_scaler"] is None
                       else _settings(MinMaxScaler, entry["vol_scaler"]),
            garch=None if entry["garch"] is None else _garch_from(entry["garch"], arrays, n,
                                                                  cfg.garch),
            network=neural._network(net_cfg, flat),
            vol_kind=entry["vol_kind"],
        ))
    return EnsembleForecaster(
        variant=Variant(header["variant"]),
        cell=neural.CellKind(header["cell"]),
        config=cfg,
        modes=modes,
        mode_values=mode_values,
        mode_models=tuple(models),
        train_size=header["train_size"],
    )


def _garch_from(d: dict, arrays: dict[str, np.ndarray], n: int,
                spec: garch.GarchSpec) -> garch.GarchFit:
    sigma2 = _array(arrays, f"mode_{n}.sigma2_path", (-1,))
    params = garch.GarchParams(d["alpha0"], _array(arrays, f"mode_{n}.alphas", (spec.k,)),
                               _array(arrays, f"mode_{n}.betas", (spec.l,)))
    return garch.GarchFit(
        params=params,
        sigma2_path=sigma2,
        residuals=_array(arrays, f"mode_{n}.residuals", sigma2.shape),
        **{k: d[k] for k in _GARCH_SCALARS},
    )
