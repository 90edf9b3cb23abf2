"""The repository's tools import what they use from the package.

``tools/make_goldens.py`` runs only when someone regenerates the
fixtures, so a name it imports that the package has moved would
otherwise go unseen until then.
"""
from pathlib import Path

import pytest

from conftest import load_make_goldens

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


@pytest.fixture(scope="module")
def make_goldens():
    return load_make_goldens()


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


def test_every_fixture_maker_runs(make_goldens, tmp_path, monkeypatch):
    # the makers not checked byte for byte above write through exp, cos
    # or the integrator, whose last digits follow SIMD dispatch; running
    # them still catches a call the package no longer accepts
    monkeypatch.setattr(make_goldens, "DATA", tmp_path)
    makers = [name for name in vars(make_goldens) if name.startswith("make_")]
    for name in makers:
        getattr(make_goldens, name)()
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    committed = sorted(p.relative_to(DATA) for p in DATA.rglob("*") if p.is_file())
    assert written == committed


def test_named_golden_is_the_only_one_rewritten(make_goldens, tmp_path, monkeypatch):
    # a named run reads the committed fixtures and rewrites only its own
    # golden directory and the environment record beside it
    monkeypatch.setattr(make_goldens, "GOLDEN", tmp_path)
    make_goldens.main(["oracle"])
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert written == ["environment.json", "oracle/comparison.csv", "oracle/zeno_map.csv"]
    golden = ROOT / "tests" / "golden" / "oracle"
    assert (tmp_path / "oracle" / "zeno_map.csv").read_bytes() == (golden / "zeno_map.csv").read_bytes()
    with pytest.raises(SystemExit, match="unknown golden orcale"):
        make_goldens.main(["orcale"])
