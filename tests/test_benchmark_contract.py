"""The names the benchmark in ``perfbench/`` binds must keep resolving.

``perfbench/tracer.py`` wraps module globals of zenokit by name and reads
their arguments by parameter name; ``perfbench/refs.py`` builds
``LindbladModel`` objects itself.  Renaming any of them would otherwise
surface only when the benchmark runs.  These tests install the tracer as
``perfbench/run.py --trace 1`` does and drive the CLI through it.
"""
import math
import sys
from pathlib import Path

import pytest

import zenokit as zk
from conftest import load_make_goldens
from zenokit import cli

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT))
from perfbench import refs, workloads  # noqa: E402  (needs the repository root on the path)
from perfbench.tracer import Tracer  # noqa: E402

MODULES = ("cli", "kk", "spectrum", "defect", "lindblad", "fits", "io")

# g = kappa/4 with no detuning, dephasing or qubit decay: an exceptional
# point, whose defective eigenbasis sends validate_kk to the RK4 fallback
EXCEPTIONAL_POINT = zk.DefectParams(freq=0.0, coupling=2.5, decay=10.0)


def test_traced_cli_runs_count_each_layer(tmp_path):
    commands = load_make_goldens().GOLDEN_COMMANDS
    tracer = Tracer()
    tracer.install({name: sys.modules[f"zenokit.{name}"] for name in MODULES})
    try:
        for golden in ("oracle", "predict", "flux_noise", "calibrate", "fit_swap", "convert_t1"):
            assert cli.main(commands[golden]() + ["--out", str(tmp_path / golden)]) == 0, golden
        # the golden oracle contexts are propagated exactly and integrate
        # nothing; this one integrates, so the evolve hook is still counted
        spectrum = zk.ParametricSpectrum(0.0, (EXCEPTIONAL_POINT.spectral_peak(),))
        context = zk.MeasurementContext(freq=0.0, dephasing=0.0)
        cli.validate_kk(spectrum, EXCEPTIONAL_POINT, [context])
    finally:
        tracer.uninstall()
    for name in ("lindblad.evolve", "fits.lm_minimize", "kk.decay_rate", "io.read_columns_csv"):
        assert tracer.totals[name][0] > 0, name
    # run.py writes these to JSON and divides them: an array-valued return of
    # a wrapped function would reach them only there
    for name, value in tracer.counts.items():
        assert type(value) in (int, float) and math.isfinite(value), (name, value)
    for name, total in tracer.totals.items():
        assert all(type(v) in (int, float) and math.isfinite(v) for v in total), (name, total)
    # the echo and Ramsey sets each share a grid, so each is fitted in one
    # batched descent, which runs neither single fit nor the batch-of-one
    # adapter; one descent per oracle rate fit and one for the linecut,
    # counted once though the tracer wraps _lm_minimize on both fits and lindblad
    calls = {name: total[0] for name, total in tracer.totals.items()}
    assert calls.get("fits.fit_exponential", 0) == calls.get("fits.fit_damped_sine", 0) == 0
    assert calls["fits.fit_swap_chevron"] == 1
    assert calls["fits.lm_minimize"] == (
        calls["lindblad.extract_decay_rate"] + calls["fits.fit_swap_chevron"]
    )
    assert tracer.counts["lindblad.rk4_steps"] > 0
    assert tracer.counts["kk.grid_points"] > 0
    assert cli.validate_kk is zk.validate_kk  # uninstall restored the originals


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_first_invocation_of_each_pool_runs_and_passes_its_gate(name, tmp_path):
    # the benchmark's generator writes its own configs, so a key the CLI
    # refuses would otherwise surface only when the benchmark runs
    invocation = workloads.build(name, 1, tmp_path, zk)[0]
    for argv in invocation.argvs:
        assert cli.main(argv) == 0, argv
    assert invocation.check().errors == []


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
