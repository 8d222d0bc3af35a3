"""Save/load a fitted forecaster as a directory of two files.

The directory holds the fields of `pipeline.EnsembleForecaster`.
`forecaster.json` is the header: the format tag, variant, cell and run
configuration, the mode set's scalars (`modes`) when the variant decomposes,
and per mode the GARCH fit's scalars (`garch`) for VMD-GARCH.  `arrays.npz`
is one uncompressed `np.savez` archive of a fixed set of stacked float64
arrays, whatever the mode count K: `mode_values` (K, T), `networks` (K, P),
then `omegas` and `residual` when the variant decomposes, and the GARCH
`alphas`, `betas`, `sigma2_path` and `residuals` (one row per mode) for
VMD-GARCH.  The arrays are written first and the header last, so a
directory whose header exists has its arrays.

A model directory is outside input.  The archive is read with
`allow_pickle=False`; load checks each key set, dtype and number of
dimensions, each header scalar's type, and that a GARCH fit took the
rolling fallback exactly when it did not converge, and the record's
constructor checks every shape.  Any missing, extra,
truncated, foreign, mistyped or misshapen entry raises `CorruptModel`, as
does any other format (the v1, v2 and v3 layouts included).  Values come back
bit for bit, so a reloaded forecaster forecasts identically.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
import zlib
from pathlib import Path

import numpy as np

from . import garch, neural, vmd
from .errors import CorruptModel, ModecastError, ShapeMismatch
from .pipeline import EnsembleForecaster, PipelineConfig, Variant
from .series import SplitSpec

FORMAT = "modecast-forecaster v4"
HEADER = "forecaster.json"
ARRAYS = "arrays.npz"
_GARCH_ARRAYS = ("alphas", "betas", "sigma2_path", "residuals")
# the header's scalars and their types
_GARCH_SCALARS = {"mean": float, "log_likelihood": float, "converged": bool,
                  "used_differencing": bool, "used_rolling_fallback": bool}
_MODE_SET_SCALARS = {"iterations": int, "final_delta": float, "converged": bool}


def _fields(obj, names=None) -> dict:
    """The named attributes of `obj` (default: every dataclass field)."""
    return {n: getattr(obj, n) for n in names or (f.name for f in dataclasses.fields(obj))}


def _exact(d: dict, names, what: str) -> dict:
    """`d`, which must hold exactly the entries `names`: a missing entry must
    not load silently as a default, nor an extra one be dropped unread."""
    if set(d) != set(names):
        raise KeyError(f"{what} entries {sorted(set(d) ^ set(names))}")
    return d


def _typed(d: dict, types: dict, what: str) -> dict:
    """`d`, which must hold exactly the entries of `types`, each of exactly
    its type: JSON writes a float with a point, and a bool is no int."""
    for name in _exact(d, types, what):
        if type(d[name]) is not types[name]:
            raise CorruptModel(f"{HEADER}: {what} {name} {d[name]!r} is no {types[name].__name__}")
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
    arrays = {"mode_values": forecaster.mode_values, "networks": forecaster.networks}
    header = {
        "format": FORMAT,
        "variant": forecaster.variant.value,
        "cell": forecaster.cell.value,
        "config": _config_to_dict(forecaster.config),
    }
    if forecaster.variant is not Variant.DIRECT:
        arrays.update(omegas=forecaster.modes.omegas, residual=forecaster.modes.residual)
        header["modes"] = _fields(forecaster.modes, _MODE_SET_SCALARS)
    if forecaster.variant is Variant.VMD_GARCH:
        rows = [(f.params.alphas, f.params.betas, f.sigma2_path, f.residuals)
                for f in forecaster.garch]
        arrays.update(zip(_GARCH_ARRAYS, map(np.stack, zip(*rows))))
        header["garch"] = [{"alpha0": f.params.alpha0, **_fields(f, _GARCH_SCALARS)}
                           for f in forecaster.garch]
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


def _array(arrays: dict[str, np.ndarray], name: str, ndim: int) -> np.ndarray:
    """`arrays[name]`, which must be a float64 array of `ndim` dimensions."""
    a = arrays[name]
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == ndim):
        raise CorruptModel(f"{ARRAYS}: {name} is not a {ndim}-d float64 array")
    return a


def _forecaster_from(header: dict, arrays: dict[str, np.ndarray]) -> EnsembleForecaster:
    """The forecaster of a v4 directory; the record checks every shape."""
    variant = Variant(header["variant"])
    decomposes = variant is not Variant.DIRECT
    with_garch = variant is Variant.VMD_GARCH
    _exact(header, ("format", "variant", "cell", "config", *("modes",) * decomposes,
                    *("garch",) * with_garch), "header")
    cfg = _config_from_dict(header["config"])
    expected = {"mode_values", "networks", *(("omegas", "residual") if decomposes else ()),
                *(_GARCH_ARRAYS if with_garch else ())}
    if set(arrays) != expected:
        raise CorruptModel(f"{ARRAYS}: missing {sorted(expected - set(arrays))}, "
                           f"unexpected {sorted(set(arrays) - expected)}")
    mode_values = _array(arrays, "mode_values", 2)
    modes = fits = None
    if decomposes:
        modes = vmd.ModeSet(modes=mode_values, omegas=_array(arrays, "omegas", 1),
                            residual=_array(arrays, "residual", 1),
                            **_typed(header["modes"], _MODE_SET_SCALARS, "modes"))
    if with_garch:  # one header entry per row of each GARCH array
        entries = [_typed(e, {"alpha0": float, **_GARCH_SCALARS}, "garch") for e in header["garch"]]
        if any(e["used_rolling_fallback"] is e["converged"] for e in entries):  # as fit_many sets
            raise CorruptModel(f"{HEADER}: garch used_rolling_fallback must be (not converged)")
        fits = tuple(
            garch.GarchFit(params=garch.GarchParams(entry["alpha0"], alphas, betas),
                           sigma2_path=sigma2, residuals=residuals,
                           **{name: entry[name] for name in _GARCH_SCALARS})
            for entry, alphas, betas, sigma2, residuals in zip(
                entries, *(_array(arrays, name, 2) for name in _GARCH_ARRAYS), strict=True))
    try:
        return EnsembleForecaster(variant=variant, cell=neural.CellKind(header["cell"]),
                                  config=cfg, modes=modes, mode_values=mode_values, garch=fits,
                                  networks=_array(arrays, "networks", 2))
    except ShapeMismatch as exc:
        raise CorruptModel(f"{ARRAYS}: {exc}") from exc
