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
misshapen entry raises `CorruptModel`, and so does a header whose values
contradict each other or the arrays.  A directory of any other format (the
v1 layout included) is refused.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
import zlib
from pathlib import Path

import numpy as np

from . import garch, neural, vmd
from .errors import CorruptModel, ModecastError
from .pipeline import EnsembleForecaster, ModeModel, PipelineConfig, Variant
from .series import MinMaxScaler, SplitSpec

FORMAT = "modecast-forecaster v2"
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


def _exact(d: dict, names, what: str) -> dict:
    """`d`, which must hold exactly the entries `names`: a missing entry must
    not load silently as a default, nor an extra one be dropped unread."""
    if set(d) != set(names):
        raise KeyError(f"{what} entries {sorted(set(d) ^ set(names))}")
    return d


def _settings(cls, d: dict):
    """`cls(**d)`, where `d` must name every field and nothing else."""
    return cls(**_exact(d, [f.name for f in dataclasses.fields(cls)], cls.__name__))


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
    _exact(d, ("vmd", "garch", "garch_options", "network", "train", "split_fraction",
               "seq_len", "retrain_every"), "config")
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


def save_forecaster(forecaster: EnsembleForecaster, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
        raise CorruptModel(f"unreadable {HEADER} in {root}: {exc}") from exc
    tag = header.get("format") if isinstance(header, dict) else None
    if tag != FORMAT:
        raise CorruptModel(f"{root} holds no {FORMAT} model (format {tag!r}); "
                           "re-run `modecast train` to write it again")
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
    _exact(header, ("format", "variant", "cell", "train_size", "config", "modes",
                    "mode_models"), "header")
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
    train_size = header["train_size"]
    if not (type(train_size) is int and 0 < train_size < t_len):
        raise CorruptModel(f"{HEADER}: train_size {train_size!r} is not an int in 1..{t_len - 1}")
    modes = None
    if meta is not None:
        modes = vmd.ModeSet(modes=mode_values,
                            omegas=_array(arrays, "omegas", (len(entries),)),
                            residual=_array(arrays, "residual", (t_len,)),
                            **_exact(meta, _MODE_SET_SCALARS, "modes"))
    models = []
    for n, entry in enumerate(entries, start=1):
        _exact(entry, ("mode_index", "scaler", "vol_scaler", "vol_kind", "network", "garch"),
               f"mode {n}")
        if not (type(entry["mode_index"]) is int and entry["mode_index"] == n):
            raise CorruptModel(f"{HEADER}: mode {n} has mode_index {entry['mode_index']!r}")
        fit = None if entry["garch"] is None else _garch_from(entry["garch"], arrays, n, cfg.garch)
        # the volatility kind must be the one the fit implies, as `_fit_forecasters` sets it
        kinds = (("zeros", "value") if fit is None
                 else ("rolling",) if fit.used_rolling_fallback else ("garch",))
        if entry["vol_kind"] not in kinds:
            raise CorruptModel(f"{HEADER}: mode {n} has vol_kind {entry['vol_kind']!r}, "
                               f"expected one of {kinds}")
        net_cfg = _network_from_dict(entry["network"])
        flat = _array(arrays, f"mode_{n}.flat", (neural.parameter_count(net_cfg),))
        models.append(ModeModel(
            mode_index=n,
            scaler=_settings(MinMaxScaler, entry["scaler"]),
            vol_scaler=None if entry["vol_scaler"] is None
                       else _settings(MinMaxScaler, entry["vol_scaler"]),
            garch=fit,
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
        train_size=train_size,
    )


def _garch_from(d: dict, arrays: dict[str, np.ndarray], n: int,
                spec: garch.GarchSpec) -> garch.GarchFit:
    _exact(d, ("alpha0", *_GARCH_SCALARS), f"mode {n} garch")
    sigma2 = _array(arrays, f"mode_{n}.sigma2_path", (-1,))
    params = garch.GarchParams(d["alpha0"], _array(arrays, f"mode_{n}.alphas", (spec.k,)),
                               _array(arrays, f"mode_{n}.betas", (spec.l,)))
    return garch.GarchFit(
        params=params,
        sigma2_path=sigma2,
        residuals=_array(arrays, f"mode_{n}.residuals", sigma2.shape),
        **{k: d[k] for k in _GARCH_SCALARS},
    )
