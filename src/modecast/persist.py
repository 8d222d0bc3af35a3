"""Save/load a fitted forecaster as a directory of two files.

The directory holds the fields of `pipeline.EnsembleForecaster`.
`forecaster.json` is the header: the format tag, variant, cell and run
configuration, the mode set's scalars (`modes`) when the variant decomposes,
per mode the GARCH fit's scalars (`garch`) for VMD-GARCH, and the layout
(`arrays`, a list of [name, shape] pairs in file order) and `zlib.crc32`
(`crc32`) of the array file.  `arrays.f64` is raw little-endian float64, a
fixed set of stacked arrays back to back in C order with no padding,
whatever the mode count K: `mode_values` (K, T), `networks` (K, P), then
`omegas` and `residual` when the variant decomposes, and the GARCH
`alphas`, `betas`, `sigma2_path` and `residuals` (one row per mode) for
VMD-GARCH.  The arrays are written first and the header last, so a
directory whose header exists has its arrays.

A model directory is outside input, and nothing in it is unpickled.  Load
checks the header's entries and each scalar's type, that a GARCH fit took
the rolling fallback exactly when it did not converge, the layout's names
(the variant's, in order), each shape's number of dimensions, and that each
GARCH array has one row per GARCH entry; then that the file holds exactly
the layout's bytes, and their CRC.  It reads the file in one call, hands
each array to the record as a view of that one buffer, and the record's
constructor checks every shape.  Any missing, extra, truncated, foreign,
altered, mistyped or misshapen entry raises `CorruptModel`, as does any
other format (the v1 to v4 layouts included).
Values come back bit for bit, so a reloaded forecaster forecasts identically.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import zlib
from pathlib import Path

import numpy as np

from . import garch, neural, vmd
from .errors import CorruptModel, ModecastError, ShapeMismatch
from .pipeline import EnsembleForecaster, PipelineConfig, Variant
from .series import SplitSpec

FORMAT = "modecast-forecaster v5"
HEADER = "forecaster.json"
ARRAYS = "arrays.f64"
_FLOAT = np.dtype("<f8")
# every array the file can hold, in file order, and its number of dimensions;
# a variant holds the first 2 (direct), the first 4 (vmd) or all 8 (vmd-garch)
_NDIM = {"mode_values": 2, "networks": 2, "omegas": 1, "residual": 1,
         "alphas": 2, "betas": 2, "sigma2_path": 2, "residuals": 2}
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
    """Write `forecaster` to the directory `out_dir`, made if absent: the
    array file first, then the header, which records the file's layout and
    CRC.  No other file in the directory is touched."""
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
    header["arrays"], header["crc32"] = _write_arrays(out / ARRAYS, arrays)
    (out / HEADER).write_text(json.dumps(header, indent=1), encoding="utf-8")
    return out


def load_forecaster(model_dir) -> EnsembleForecaster:
    """The forecaster saved in `model_dir`, bit for bit.  Raises
    `CorruptModel` for a directory of another format or any damage: the
    header is checked whole before the array file is read, in one call."""
    root = Path(model_dir)
    try:
        header = json.loads((root / HEADER).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
        raise CorruptModel(f"unreadable {HEADER} in {root}: {exc}") from exc
    tag = header.get("format") if isinstance(header, dict) else None
    if tag != FORMAT:
        raise CorruptModel(f"{root} holds no {FORMAT} model (format {tag!r}); "
                           "re-run `modecast train` to write it again")
    try:
        return _forecaster_from(header, root / ARRAYS)
    except CorruptModel:
        raise
    except (KeyError, IndexError, TypeError, ValueError, ModecastError) as exc:
        raise CorruptModel(f"incomplete {HEADER} in {root}: {exc!r}") from exc


def _write_arrays(path: Path, arrays: dict[str, np.ndarray]) -> tuple[list, int]:
    """Write `arrays` to `path` as raw little-endian float64, back to back in
    C order; return their layout, [name, shape] pairs in file order, and the
    file's `zlib.crc32`."""
    crc = 0
    with open(path, "wb") as fh:
        for a in arrays.values():
            raw = np.ascontiguousarray(a, dtype=_FLOAT)
            fh.write(raw)
            crc = zlib.crc32(raw, crc)
    return [[name, list(a.shape)] for name, a in arrays.items()], crc


def _read_arrays(path: Path, layout: list, crc: int) -> dict[str, np.ndarray]:
    """The arrays of `layout` ([name, shape] pairs in file order), each a view
    of one buffer read from `path` in one call.

    The file must hold exactly the layout's bytes, checked before anything is
    allocated (`np.fromfile` would drop a trailing partial item unseen), and
    their CRC must be `crc`."""
    sizes = [math.prod(shape) for _, shape in layout]
    count = sum(sizes)
    try:
        with open(path, "rb", buffering=0) as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != _FLOAT.itemsize * count:
                raise CorruptModel(f"{path} holds {size} bytes, not the layout's "
                                   f"{_FLOAT.itemsize * count}")
            flat = np.empty(count, dtype=_FLOAT)
            if fh.readinto(flat) != size:
                raise CorruptModel(f"{path} changed while it was read")
    except OSError as exc:
        raise CorruptModel(f"unreadable {path}: {exc!r}") from exc
    if zlib.crc32(flat) != crc:
        raise CorruptModel(f"{path} fails its CRC: it was altered")
    flat = flat.astype(np.float64, copy=False)  # native byte order; no copy when it is <f8
    ends = np.cumsum(sizes).tolist()
    return {name: flat[end - n:end].reshape(shape)
            for (name, shape), n, end in zip(layout, sizes, ends)}


def _check_layout(layout, names: tuple[str, ...]) -> None:
    """Raise `CorruptModel` unless `layout` lists exactly `names`, in order,
    as [name, shape] pairs, each shape a list of its array's number of
    sizes, each an int >= 0."""
    if not (isinstance(layout, list) and all(isinstance(e, list) and len(e) == 2 for e in layout)
            and [name for name, _ in layout] == list(names)):
        raise CorruptModel(f"{HEADER}: arrays {layout!r} do not list {list(names)} in order")
    for name, shape in layout:
        if not (isinstance(shape, list) and len(shape) == _NDIM[name]
                and all(type(n) is int and n >= 0 for n in shape)):
            raise CorruptModel(f"{HEADER}: array {name} shape {shape!r} is not "
                               f"{_NDIM[name]} ints >= 0")


def _forecaster_from(header: dict, path: Path) -> EnsembleForecaster:
    """The forecaster of a v5 header and its array file at `path`; every
    header entry is checked before the file is read, and the record checks
    every shape."""
    variant = Variant(header["variant"])
    decomposes = variant is not Variant.DIRECT
    with_garch = variant is Variant.VMD_GARCH
    _exact(header, ("format", "variant", "cell", "config", *("modes",) * decomposes,
                    *("garch",) * with_garch, "arrays", "crc32"), "header")
    cfg = _config_from_dict(header["config"])
    cell = neural.CellKind(header["cell"])
    _check_layout(header["arrays"], tuple(_NDIM)[:2 + 2 * decomposes + 4 * with_garch])
    if type(header["crc32"]) is not int:
        raise CorruptModel(f"{HEADER}: crc32 {header['crc32']!r} is no int")
    if decomposes:
        mode_set = _typed(header["modes"], _MODE_SET_SCALARS, "modes")
    if with_garch:  # one header entry per row of each GARCH array
        entries = [_typed(e, {"alpha0": float, **_GARCH_SCALARS}, "garch") for e in header["garch"]]
        if any(e["used_rolling_fallback"] is e["converged"] for e in entries):  # as fit_many sets
            raise CorruptModel(f"{HEADER}: garch used_rolling_fallback must be (not converged)")
        for name, shape in header["arrays"][-len(_GARCH_ARRAYS):]:
            if shape[0] != len(entries):
                raise CorruptModel(f"{HEADER}: array {name} shape {shape} has {shape[0]} rows "
                                   f"for {len(entries)} garch entries")
    arrays = _read_arrays(path, header["arrays"], header["crc32"])
    mode_values = arrays["mode_values"]
    modes = fits = None
    if decomposes:
        modes = vmd.ModeSet(modes=mode_values, omegas=arrays["omegas"],
                            residual=arrays["residual"], **mode_set)
    if with_garch:
        fits = tuple(
            garch.GarchFit(params=garch.GarchParams(entry["alpha0"], alphas, betas),
                           sigma2_path=sigma2, residuals=residuals,
                           **{name: entry[name] for name in _GARCH_SCALARS})
            for entry, alphas, betas, sigma2, residuals in zip(
                entries, *(arrays[name] for name in _GARCH_ARRAYS), strict=True))
    try:
        return EnsembleForecaster(variant=variant, cell=cell, config=cfg, modes=modes,
                                  mode_values=mode_values, garch=fits, networks=arrays["networks"])
    except ShapeMismatch as exc:
        raise CorruptModel(f"{ARRAYS}: {exc}") from exc
