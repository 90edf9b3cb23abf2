"""The names the benchmark in ``perfbench/`` binds must keep resolving.

``perfbench/tracer.py`` wraps module globals of zenokit by name and reads
their arguments by parameter name; ``perfbench/refs.py`` builds
``LindbladModel`` objects itself.  Renaming any of them would otherwise
surface only when the benchmark runs.  These tests install the tracer as
``perfbench/run.py --trace 1`` does and drive the CLI through it.
"""
import sys
from pathlib import Path

import pytest

import zenokit as zk
from zenokit import cli

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"

sys.path.insert(0, str(ROOT))
from perfbench import refs, workloads  # noqa: E402  (needs the repository root on the path)
from perfbench.tracer import Tracer  # noqa: E402

MODULES = ("cli", "kk", "spectrum", "defect", "lindblad", "fits", "io")


def test_traced_cli_runs_count_each_layer(tmp_path):
    tracer = Tracer()
    tracer.install({name: sys.modules[f"zenokit.{name}"] for name in MODULES})
    try:
        for command in ("oracle", "predict"):
            config = DATA / f"{command}_config.json"
            assert cli.main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    for name in ("lindblad.evolve", "fits.lm_minimize", "kk.decay_rate"):
        assert tracer.totals[name][0] > 0, name
    assert tracer.counts["lindblad.rk4_steps"] > 0
    assert tracer.counts["kk.grid_points"] > 0
    assert cli.validate_kk is zk.validate_kk  # uninstall restored the originals


def test_reference_oracle_builds_its_own_model(adiabatic_defect):
    model = zk.LindbladModel(
        qubit_freq=adiabatic_defect.freq, dephasing=3.0, qubit_decay=0.01, defect=adiabatic_defect
    )
    rate, oscillating = refs.exact_oracle_rate(zk, model)
    purcell = zk.generalized_purcell(
        zk.QubitParams(freq=model.qubit_freq, decay=0.01, dephasing=3.0), adiabatic_defect
    )
    assert rate == pytest.approx(purcell, rel=0.05)
    assert not oscillating


def test_flag_threshold_matches_the_gate():
    # the oracle-crosscheck gate recomputes each row's flag with its own copy
    assert zk.lindblad.FLAG_THRESHOLD == workloads.FLAG_THRESHOLD
