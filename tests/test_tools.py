"""The repository's tools import what they use from the package.

``tools/make_goldens.py`` runs only when someone regenerates the
fixtures, so a name it imports that the package has moved would
otherwise go unseen until then.  ``tools/code_lines.py`` gives the size
figures that the change log cites.
"""
import subprocess
import sys
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


CODE_LINES_FIXTURE = '''"""Module docstring,
over two lines."""
import math

# a comment line


def area(r):
    """One-line docstring."""
    x = """a string that is no docstring
    counts as code"""  # and so does a line with a trailing comment
    return math.pi * r * r


class Shape:
    """Class docstring.

    With a blank line inside.
    """

    sides = 0
'''


def test_code_lines_counts_a_module_without_docstrings_comments_or_blanks(tmp_path):
    # 21 lines: 7 of docstrings (one blank inside), 1 comment, 6 blank, 7 of code
    module = tmp_path / "shape.py"
    module.write_text(CODE_LINES_FIXTURE, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(module)],
        capture_output=True,
        text=True,
        check=True,
    )
    rows = [line.split() for line in result.stdout.splitlines()]
    assert rows == [["module", "lines", "code"], ["shape.py", "21", "7"], ["total", "21", "7"]]
