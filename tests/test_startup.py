"""Start-up: importing modecast and fitting load none of `scipy.signal`,
`scipy.stats` and `scipy.optimize`, and no path but the LM test loads
`scipy.special`.

The import checks run in a fresh interpreter, since the test process itself
has imported both packages by the time it gets here.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import modecast

SRC = str(Path(modecast.__file__).resolve().parent.parent)


def _run(code: str) -> str:
    """Run `code` in a fresh interpreter that imports modecast from this tree; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_and_fit_load_neither_scipy_signal_nor_scipy_stats():
    out = _run("""
        import importlib, pkgutil, sys
        import numpy as np
        import modecast
        for info in pkgutil.iter_modules(modecast.__path__):
            importlib.import_module("modecast." + info.name)
        import modecast.cli
        from modecast import garch
        sim = garch.simulate(garch.GarchParams(0.1, [0.3], [0.6]), 400, seed=1)
        garch.fit(sim, garch.GarchSpec(1, 1))
        garch.arch_lm_test(sim, 12)
        print(sorted(m for m in sys.modules
                     if m.startswith(("scipy.signal", "scipy.stats", "scipy.optimize"))))
    """)
    # the compiled filter module itself may be registered under its full name
    # (CPython records single-phase extension modules there); its package is not
    assert out in ("[]", "['scipy.signal._sigtools']")


def test_no_path_but_the_lm_test_loads_scipy_special(tmp_path):
    out = _run(f"""
        import importlib, pkgutil, sys
        import numpy as np
        import modecast
        for info in pkgutil.iter_modules(modecast.__path__):
            importlib.import_module("modecast." + info.name)
        import modecast.cli
        from modecast import garch, neural, persist, pipeline, vmd
        from modecast.series import SplitSpec, TimeSeries

        t = np.arange(160)
        series = TimeSeries(20.0 + 0.02 * t + np.cos(2 * np.pi * 0.07 * t)
                            + 0.2 * np.random.default_rng(0).standard_normal(t.size))
        cfg = pipeline.PipelineConfig(
            vmd=vmd.VmdConfig(n_modes=2, alpha=500.0), garch=garch.GarchSpec(1, 1),
            network=neural.NetworkConfig(cell=neural.CellKind.GRU, layers=1, hidden=4,
                                         input_features=2, seed=0),
            train=neural.TrainConfig(epochs=1, batch_size=32, lr=3e-3, seed=5),
            split=SplitSpec(0.8), seq_len=8, garch_options=garch.FitOptions())
        fc = pipeline.fit_forecaster(series, pipeline.Variant.VMD_GARCH,
                                     neural.CellKind.GRU, cfg)
        persist.save_forecaster(fc, {str(tmp_path / "model")!r})
        loaded = persist.load_forecaster({str(tmp_path / "model")!r})
        pipeline.rolling_forecast(loaded, series, 4)
        pipeline.compare_models(series, [2], [neural.CellKind.RNN], cfg)
        assert "scipy.special" not in sys.modules
        stat, _ = garch.arch_lm_test(series, 4)
        assert np.isfinite(stat) and "scipy.special" in sys.modules
        print("ok")
    """)
    assert out == "ok"


_FILTER_IDENTITY = """
    import sys
    import numpy as np
    {first}
    {second}
    rng = np.random.default_rng(4)
    for l in (1, 2, 10):
        for _ in range(200):
            betas = rng.dirichlet(np.ones(l)) * rng.uniform(0.05, 0.95)
            denom = np.concatenate([[1.0], -betas])
            base = rng.uniform(0.01, 2.0, 120)
            zi = garch._filter_state(denom[None, :], rng.uniform(0.1, 3.0, (1, l)))[0]
            got = garch._linear_filter(garch._ONE, denom, base, -1, zi)
            want = signal.lfilter([1.0], denom, base, zi=zi)
            assert got[0].tobytes() == want[0].tobytes(), l
            assert got[1].tobytes() == want[1].tobytes(), l
    print("ok")
"""


@pytest.mark.parametrize("first,second", [
    ("from modecast import garch\nassert 'scipy.signal' not in sys.modules", "from scipy import signal"),
    ("from scipy import signal", "from modecast import garch"),
], ids=["loader-first", "scipy-signal-first"])
def test_loaded_filter_equals_lfilter_in_either_import_order(first, second):
    code = textwrap.dedent(_FILTER_IDENTITY)
    code = code.replace("{first}", first).replace("{second}", second)
    assert _run(code) == "ok"


def test_missing_filter_extension_raises_import_error_naming_the_directory(monkeypatch, tmp_path):
    from modecast import garch

    monkeypatch.setattr(garch.scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "signal"))):
        garch._load_linear_filter()
