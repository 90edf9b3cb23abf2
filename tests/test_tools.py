"""The repository's tools import what they use from the package.

``tools/make_goldens.py`` runs only when someone regenerates the
fixtures, so a name it imports that the package has moved would
otherwise go unseen until then.
"""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


@pytest.fixture(scope="module")
def make_goldens():
    spec = importlib.util.spec_from_file_location(
        "make_goldens", ROOT / "tools" / "make_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# fixtures written with elementwise IEEE arithmetic only, so their bytes
# do not depend on numpy's SIMD dispatch
@pytest.mark.parametrize(
    "maker,files",
    [
        ("make_spectra", ["spectrum_hotspot.csv", "spectrum_flat.csv"]),
        ("make_calibration_input", ["calibration.json"]),
        ("make_predict_configs", ["predict_config.json", "predict_flat_config.json"]),
        ("make_oracle_config", ["oracle_config.json"]),
    ],
)
def test_fixture_makers_reproduce_committed_bytes(
    make_goldens, maker, files, tmp_path, monkeypatch
):
    monkeypatch.setattr(make_goldens, "DATA", tmp_path)
    getattr(make_goldens, maker)()
    for name in files:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
