"""The repository's tools import what they use from the package.

``tools/make_goldens.py`` runs only when someone regenerates the
fixtures, so a name it imports that the package has moved would
otherwise go unseen until then.  ``tools/code_lines.py`` gives the size
figures that the change log cites, and ``tools/bench.py`` the committed
benchmark pairs; it is checked here against a fake benchmark script, so
its parsing, pairing and medians are checked without timing anything.
``tools/traffic.py`` lists the lines the benchmark workloads never run;
its line collection is checked on a throwaway module, so no workload
runs here.
"""
import importlib.util
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


# a stand-in for perfbench/run.py: a human-readable line, then the JSON
# result line; items_per_probe is the seed, doubled in the "change" tree,
# peak_rss_mb 50 in both, and seed 3 of the parent fails one invocation
FAKE_RUN = """
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
tree = Path(__file__).resolve().parent.parent
with open(tree.parent / "order.log", "a") as log:
    log.write(f"{tree.name} {args['--seed']}\\n")
seed = int(args["--seed"])
scale = 2 if tree.name == "change" else 1
failed = int(tree.name == "parent" and seed == 3)
print("perfbench workload=" + args["--workload"])
metrics = {"items_per_probe": {"value": seed * scale, "unit": "1/probe"},
           "peak_rss_mb": {"value": 50.0, "unit": "MB"}}
print(json.dumps({"correct": not failed, "attempted": 10, "failed": failed, "metrics": metrics}))
sys.exit(failed)
"""


@pytest.fixture(scope="module")
def bench_tool():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_alternates_pairs_and_summarizes_them(bench_tool, tmp_path):
    trees = {}
    for name in ("parent", "change"):
        trees[name] = tmp_path / name
        (trees[name] / "perfbench").mkdir(parents=True)
        (trees[name] / "perfbench" / "run.py").write_text(FAKE_RUN, encoding="utf-8")
    benchmark = {
        "command": ["python3", "perfbench/run.py"],
        "end_to_end": [
            {"name": "items_per_probe", "better": "higher"},
            {"name": "peak_rss_mb", "better": "lower"},
            {"name": "setup_s", "better": "lower"},
        ],
    }
    report = bench_tool.bench(trees["parent"], trees["change"], benchmark, ["w"],
                              [1, 2, 3, 4, 5], 0.1, log=lambda line: None)
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert order == ["parent 1", "change 1", "change 2", "parent 2", "parent 3", "change 3",
                     "change 4", "parent 4", "parent 5", "change 5"]
    runs = report["workloads"]["w"]["runs"]
    assert [r["first"] for r in runs] == ["parent", "change"] * 2 + ["parent"]
    assert runs[2]["parent"] == {"exit_code": 1, "attempted": 10, "failed": 1,
                                 "metrics": {"items_per_probe": 3, "peak_rss_mb": 50.0}}
    assert report["workloads"]["w"]["failures"] == {
        "parent": {"failed": 1, "nonzero_exits": 1}, "change": {"failed": 0, "nonzero_exits": 0}}
    summary = report["workloads"]["w"]["summary"]
    assert set(summary) == {"items_per_probe", "peak_rss_mb"}
    items = summary["items_per_probe"]
    assert items["parent"] == {"median": 3, "q1": 2, "q3": 4}
    assert items["change"] == {"median": 6, "q1": 4, "q3": 8}
    assert (items["pairs"], items["pairs_won"]) == (5, 5)
    assert items["median_gain"] == 1.0 and items["gain_exceeds_parent_iqr"]
    # equal values win no pair, in either direction
    rss = summary["peak_rss_mb"]
    assert (rss["pairs_won"], rss["median_gain"], rss["gain_exceeds_parent_iqr"]) == (0, 0.0, False)


def test_bench_gain_does_not_count_when_the_change_fails_more(bench_tool):
    def run(value, failed, exit_code=0):
        return {"exit_code": exit_code, "attempted": 10, "failed": failed,
                "metrics": {"items_per_probe": value}}

    better = {"items_per_probe": "higher"}
    runs = [{"seed": s, "parent": run(s, 0), "change": run(2 * s, 0)} for s in (1, 2, 3)]
    assert bench_tool.summarize(runs, better)["items_per_probe"]["gain_exceeds_parent_iqr"]
    runs[1]["change"] = run(4, 1, exit_code=1)
    assert bench_tool.failures(runs)["change"] == {"failed": 1, "nonzero_exits": 1}
    items = bench_tool.summarize(runs, better)["items_per_probe"]
    assert items["pairs_won"] == 3 and not items["gain_exceeds_parent_iqr"]
    # a run that printed no result line fails by its exit code alone
    runs[1]["change"] = {"exit_code": 1, "attempted": None, "failed": None, "metrics": {}}
    assert bench_tool.failures(runs)["change"] == {"failed": 0, "nonzero_exits": 1}
    assert not bench_tool.summarize(runs, better)["items_per_probe"]["gain_exceeds_parent_iqr"]


def test_bench_seed_lists(bench_tool):
    assert bench_tool.parse_seeds("7") == [7]
    assert bench_tool.parse_seeds("101-103,9") == [101, 102, 103, 9]


# 14 lines: a module docstring and a module-level comprehension (both run
# at import), then one function that is called and one that is not
TRAFFIC_FIXTURE = '''\
"""A module docstring."""
SQUARES = [k * k for k in range(3)]


def used(x):
    """Called once, with x > 0."""
    if x > 0:
        return x
    return -x


def unused(x):
    """Never called."""
    return [k for k in range(x)]
'''


@pytest.fixture(scope="module")
def traffic_tool():
    sys.path.insert(0, str(ROOT / "tools"))  # traffic.py imports code_lines
    try:
        spec = importlib.util.spec_from_file_location("traffic", ROOT / "tools" / "traffic.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return module


def test_traffic_reports_the_function_lines_no_call_ran(traffic_tool, tmp_path):
    path = tmp_path / "shape.py"
    path.write_text(TRAFFIC_FIXTURE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("shape", path)
    shape = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shape)
    seen = traffic_tool.traced(lambda: shape.used(2), str(tmp_path))
    lines = traffic_tool.executable_lines(path)
    assert lines == {5, 7, 8, 9, 12, 14}
    assert seen == {str(path): {5, 7, 8}}
    unrun = sorted(lines - seen[str(path)])
    assert traffic_tool.ranges(unrun) == "9, 12, 14"
    assert traffic_tool.ranges([1, 2, 3, 7, 9, 10]) == "1-3, 7, 9-10"
