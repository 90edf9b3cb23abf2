import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zenokit as zk
from zenokit.cli import main
from zenokit.io import dump_json, environment_fingerprint, read_calibration_json
from zenokit.units import mhz_to_angular

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(argv, out_dir):
    return main([*argv, "--out", str(out_dir)])


def write_csv(path, header, rows):
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


GOLDEN_CASES = [
    ("predict", ["predict", "--config", str(DATA / "predict_config.json")]),
    ("predict_flat", ["predict", "--config", str(DATA / "predict_flat_config.json")]),
    ("calibrate", ["calibrate", "--config", str(DATA / "calibrate_config.json")]),
    ("oracle", ["oracle", "--config", str(DATA / "oracle_config.json")]),
    (
        "convert_t1",
        ["convert-t1", "--input", str(DATA / "convert_t1_input.csv"), "--t-delay", "30.0"],
    ),
    (
        "fit_swap",
        ["fit-swap", "--input", str(DATA / "swap_linecut.csv"), "--f-guess", "3.2"],
    ),
    ("flux_noise", ["fit-flux-noise", "--config", str(DATA / "flux_config.json")]),
]


def environment_note() -> str:
    """The fingerprint the goldens were written in, beside the running one."""
    committed = (GOLDEN / "environment.json").read_text(encoding="utf-8")
    running = dump_json(environment_fingerprint())
    return f"\ngoldens written in:\n{committed}running in:\n{running}"


class TestGoldenFiles:
    """Committed fixtures must reproduce committed outputs byte-exactly."""

    @pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_reproduces_golden(self, name, argv, tmp_path):
        assert run(argv, tmp_path) == 0
        expected_files = sorted(p.name for p in (GOLDEN / name).iterdir())
        produced_files = sorted(p.name for p in tmp_path.iterdir())
        assert produced_files == expected_files
        for filename in expected_files:
            assert (tmp_path / filename).read_bytes() == (
                GOLDEN / name / filename
            ).read_bytes(), f"{name}/{filename} differs from golden{environment_note()}"

    @pytest.mark.parametrize(
        "command,name,config",
        [
            ("predict", "predict", "predict_config.json"),
            ("predict", "predict_flat", "predict_flat_config.json"),
            ("oracle", "oracle", "oracle_config.json"),
        ],
    )
    def test_resolution_key_is_ignored(self, command, name, config, tmp_path):
        # the convolution is exact; configs of earlier versions set a grid size
        payload = json.loads((DATA / config).read_text())
        for key in ("spectrum_csv", "calibration_json"):
            if key in payload:
                payload[key] = str(DATA / payload[key])
        path = tmp_path / "config.json"
        path.write_text(dump_json({**payload, "resolution": 51}))
        assert run([command, "--config", str(path)], tmp_path / "out") == 0
        for golden in sorted((GOLDEN / name).iterdir()):
            assert (tmp_path / "out" / golden.name).read_bytes() == golden.read_bytes()


class TestByteDeterminism:
    """The oracle output does not depend on process state or BLAS threads.

    The convolution outputs (``predict``, and ``oracle``'s ``kk_per_us``,
    ``eq2_per_us`` and map) also keep their bytes when numpy's AVX-512
    dispatch is switched off or OpenBLAS runs another kernel.  Disabling
    a feature the host lacks changes nothing, so the check runs anywhere.
    """

    ORACLE = ["oracle", "--config", str(DATA / "oracle_config.json")]
    KERNEL_SWITCHES = {
        "no_avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4"},
        "haswell_blas": {"OPENBLAS_CORETYPE": "Haswell"},
    }

    @staticmethod
    def outputs(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    def test_two_runs_in_one_process(self, tmp_path):
        assert run(self.ORACLE, tmp_path / "first") == 0
        assert run(self.ORACLE, tmp_path / "second") == 0
        first = self.outputs(tmp_path / "first")
        assert first and first == self.outputs(tmp_path / "second")

    def test_blas_thread_count(self, tmp_path):
        produced = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            result = subprocess.run(
                [sys.executable, "-m", "zenokit", *self.ORACLE, "--out", str(out)],
                capture_output=True,
                text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert result.returncode == 0, result.stderr
            produced.append(self.outputs(out))
        assert produced[0] and produced[0] == produced[1]

    @staticmethod
    def convolution_bytes(directory):
        """Every file but the fit-derived columns of comparison.csv."""
        outputs = TestByteDeterminism.outputs(directory)
        comparison = outputs.pop("comparison.csv", None)
        if comparison is not None:
            # gamma_phi, detuning, kk_per_us, eq2_per_us; the rest come from the fit
            outputs["comparison.csv"] = b"\n".join(
                b",".join(line.split(b",")[:4]) for line in comparison.splitlines()
            )
        return outputs

    @pytest.mark.parametrize("switch", sorted(KERNEL_SWITCHES))
    def test_kernel_switch_keeps_convolution_bytes(self, switch, tmp_path):
        for name, argv in GOLDEN_CASES:
            if name not in ("predict", "predict_flat", "oracle"):
                continue
            assert run(argv, tmp_path / "default" / name) == 0
            out = tmp_path / switch / name
            result = subprocess.run(
                [sys.executable, "-m", "zenokit", *argv, "--out", str(out)],
                capture_output=True,
                text=True,
                env={**os.environ, **self.KERNEL_SWITCHES[switch]},
            )
            assert result.returncode == 0, result.stderr
            expected = self.convolution_bytes(tmp_path / "default" / name)
            assert expected and self.convolution_bytes(out) == expected, name

    def test_kernel_switch_keeps_both_kernel_branches(self, tmp_path, monkeypatch):
        # a coarse table under a narrow filter: the segments around the
        # centre take longdouble libm, the far ones the odd series
        rng = np.random.default_rng(15)
        freqs = 4884.0 + np.linspace(-15.0, 15.0, 61)
        write_csv(tmp_path / "spectrum.csv", "freq_mhz,gamma_per_us",
                  zip(freqs, rng.uniform(0.005, 0.05, freqs.size)))
        config = tmp_path / "config.json"
        config.write_text(dump_json({
            "spectrum_csv": "spectrum.csv",
            "calibration_json": str(DATA / "calibration.json"),
            "qubit_freq_mhz": 4884.0,
            "amplitudes": [0.0, 0.002, 0.01, 0.05],
        }))
        branches = set()

        def recording(name, kernel, on_series):
            def wrapped(*args):
                branches.update((name, bool(b)) for b in on_series(*args).ravel())
                return kernel(*args)
            return wrapped

        limit = zk.kk.SERIES_LIMIT
        monkeypatch.setattr(zk.kk, "_atan2", recording(
            "atan", zk.kk._atan2, lambda num, den: num < limit * den))
        monkeypatch.setattr(zk.kk, "_log1p", recording(
            "log1p", zk.kk._log1p, lambda x: x < limit))
        argv = ["predict", "--config", str(config)]
        assert run(argv, tmp_path / "default") == 0
        assert branches == {(k, b) for k in ("atan", "log1p") for b in (True, False)}
        result = subprocess.run(
            [sys.executable, "-m", "zenokit", *argv, "--out", str(tmp_path / "switched")],
            capture_output=True,
            text=True,
            env={**os.environ, **self.KERNEL_SWITCHES["no_avx512"]},
        )
        assert result.returncode == 0, result.stderr
        expected = self.outputs(tmp_path / "default")
        assert expected and self.outputs(tmp_path / "switched") == expected


class TestPredict:
    def test_rates_keep_the_digits_of_the_mhz_inputs(self, tmp_path):
        # a steep table around a 5.5 GHz qubit: a carrier in rad/us has an
        # ulp of 7.3e-12, ~1e-13..1e-12 of these rates in absolute units
        mpmath = pytest.importorskip("mpmath")
        qubit = 5500.123
        freqs = qubit + 0.0371 + np.linspace(-15.0, 15.0, 41)
        rates = 0.01 + 0.2 / (1.0 + ((freqs - qubit - 0.4) / 0.3) ** 2)
        write_csv(tmp_path / "spectrum.csv", "freq_mhz,gamma_per_us", zip(freqs, rates))
        amplitudes = [0.0, 0.004, 0.02]
        config = tmp_path / "config.json"
        config.write_text(dump_json({
            "spectrum_csv": "spectrum.csv",
            "calibration_json": str(DATA / "calibration.json"),
            "qubit_freq_mhz": qubit,
            "amplitudes": amplitudes,
        }))
        assert run(["predict", "--config", str(config)], tmp_path / "out") == 0
        records = json.loads((tmp_path / "out" / "predict.json").read_text())["results"]
        calibration = read_calibration_json(DATA / "calibration.json")
        with mpmath.workdps(40):
            # the closed form on exact offsets from the qubit, per segment
            f = [mpmath.mpf(float(v)) for v in rates]
            for eps, record in zip(amplitudes, records):
                context = zk.MeasurementContext.from_calibration(calibration, 0.0, eps)
                hw = mpmath.mpf(context.dephasing)
                u = [2 * mpmath.pi * (mpmath.mpf(float(v)) - mpmath.mpf(qubit))
                     - mpmath.mpf(context.freq) for v in freqs]
                if hw == 0:
                    j = max(i for i in range(len(u) - 1) if u[i] <= 0)
                    exact = f[j] - (f[j + 1] - f[j]) * u[j] / (u[j + 1] - u[j])
                else:
                    raw = 0
                    for j in range(len(u) - 1):
                        slope = (f[j + 1] - f[j]) / (u[j + 1] - u[j])
                        raw += (f[j] - slope * u[j]) * (
                            mpmath.atan(u[j + 1] / hw) - mpmath.atan(u[j] / hw)
                        ) / mpmath.pi + slope * hw * mpmath.log(
                            (hw**2 + u[j + 1] ** 2) / (hw**2 + u[j] ** 2)
                        ) / (2 * mpmath.pi)
                    exact = raw * mpmath.pi / (mpmath.atan(u[-1] / hw) - mpmath.atan(u[0] / hw))
                assert record["gamma_per_us"] == pytest.approx(float(exact), rel=1e-14, abs=0.0)

    def test_flat_spectrum_gives_constant_rates(self, tmp_path):
        assert run(["predict", "--config", str(DATA / "predict_flat_config.json")], tmp_path) == 0
        payload = json.loads((tmp_path / "predict.json").read_text())
        assert payload["format"] == "zenokit-v1"
        rates = [row["gamma_per_us"] for row in payload["results"]]
        assert np.allclose(rates, 0.02, rtol=1e-8)

    def test_hotspot_curve_rises(self, tmp_path):
        assert run(["predict", "--config", str(DATA / "predict_config.json")], tmp_path) == 0
        payload = json.loads((tmp_path / "predict.json").read_text())
        rates = [row["gamma_per_us"] for row in payload["results"]]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert rates[-1] > 2.0 * rates[0]

    def test_result_fields_and_order(self, tmp_path):
        run(["predict", "--config", str(DATA / "predict_config.json")], tmp_path)
        payload = json.loads((tmp_path / "predict.json").read_text())
        assert list(payload["results"][0]) == [
            "epsilon",
            "nbar",
            "stark_mhz",
            "gamma_phi_mhz",
            "gamma_raw_per_us",
            "norm",
            "gamma_per_us",
        ]

    def test_explicit_window_narrows_normalization(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            dump_json(
                {
                    "spectrum_csv": str(DATA / "spectrum_hotspot.csv"),
                    "calibration_json": str(DATA / "calibration.json"),
                    "qubit_freq_mhz": 4884.0,
                    "amplitudes": [0.05],
                    "window_mhz": [4883.0, 4885.0],
                }
            )
        )
        assert run(["predict", "--config", str(config)], tmp_path) == 0
        payload = json.loads((tmp_path / "predict.json").read_text())
        norm = payload["results"][0]["norm"]
        # +-1 MHz window around a ~1 MHz-wide filter keeps well under
        # half the Lorentzian weight
        assert norm < 0.5

    def test_missing_input_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            dump_json(
                {
                    "spectrum_csv": "nope.csv",
                    "calibration_json": str(DATA / "calibration.json"),
                    "qubit_freq_mhz": 4884.0,
                    "amplitudes": [0.0],
                }
            )
        )
        assert run(["predict", "--config", str(config)], tmp_path) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["exit_code"] == 2

    def test_domain_error_exits_3(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            dump_json(
                {
                    "spectrum_csv": str(DATA / "spectrum_flat.csv"),
                    "calibration_json": str(DATA / "calibration.json"),
                    "qubit_freq_mhz": 4884.0,
                    "amplitudes": [-0.5],
                }
            )
        )
        assert run(["predict", "--config", str(config)], tmp_path) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "DomainError"

    def test_no_partial_outputs_on_failure(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            dump_json(
                {
                    "spectrum_csv": str(DATA / "spectrum_flat.csv"),
                    "calibration_json": str(DATA / "calibration.json"),
                    "qubit_freq_mhz": 4884.0,
                    "amplitudes": [0.0, -1.0],  # fails validation mid-command
                }
            )
        )
        out = tmp_path / "out"
        assert run(["predict", "--config", str(config)], out) == 3
        assert not out.exists() or list(out.iterdir()) == []


class TestConvertT1:
    def test_uniform_survival(self, tmp_path):
        source = tmp_path / "t1.csv"
        write_csv(source, "freq_mhz,p1", [(4000.0 + i, math.exp(-1.0)) for i in range(5)])
        assert run(["convert-t1", "--input", str(source), "--t-delay", "30.0"], tmp_path) == 0
        spectrum = zk.read_spectrum_csv(tmp_path / "spectrum.csv")
        assert np.allclose(spectrum.rates, 1.0 / 30.0, rtol=1e-12)

    def test_bad_population_names_row(self, tmp_path, capsys):
        source = tmp_path / "t1.csv"
        write_csv(source, "freq_mhz,p1", [(4000.0, 0.5), (4001.0, 1.2), (4002.0, 0.5)])
        assert run(["convert-t1", "--input", str(source), "--t-delay", "30.0"], tmp_path) == 3
        error = json.loads(capsys.readouterr().err)
        assert "row 2" in error["message"]

    def test_round_trip_recovers_rates(self, tmp_path):
        rates = np.linspace(0.01, 0.2, 30)
        freqs = np.linspace(4000.0, 4030.0, 30)
        source = tmp_path / "t1.csv"
        write_csv(source, "freq_mhz,p1", zip(freqs, np.exp(-rates * 30.0)))
        assert run(["convert-t1", "--input", str(source), "--t-delay", "30.0"], tmp_path) == 0
        spectrum = zk.read_spectrum_csv(tmp_path / "spectrum.csv")
        assert np.max(np.abs(spectrum.rates - rates) / rates) < 1e-12

    def test_wrong_header_exits_2(self, tmp_path):
        source = tmp_path / "t1.csv"
        write_csv(source, "freq,p1", [(1.0, 0.5), (2.0, 0.5)])
        assert run(["convert-t1", "--input", str(source), "--t-delay", "30.0"], tmp_path) == 2


class TestCalibrate:
    def test_recovers_generating_coefficients(self, tmp_path):
        assert run(["calibrate", "--config", str(DATA / "calibrate_config.json")], tmp_path) == 0
        payload = json.loads((tmp_path / "calibration.json").read_text())
        assert payload["S_mhz"] == pytest.approx(825.0, rel=1e-9)
        assert payload["K_mhz"] == pytest.approx(5619.0, rel=1e-6)
        assert payload["R_mhz"] == pytest.approx(429.0, rel=1e-9)
        reports = json.loads((tmp_path / "fit_reports.json").read_text())
        assert len(reports["traces"]) == 6
        assert all(entry["report"]["converged"] for entry in reports["traces"])

    def test_bad_trace_listed_in_error(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        times = np.arange(0.0, 3.0, 0.004)
        good = 0.4 * np.cos(2 * math.pi * 10.0 * times) + 0.5
        for name, signal in (("good", good), ("flatline", np.full(times.size, 0.5))):
            write_csv(traces / f"{name}.csv", "time_us,signal", zip(times, signal))
            (traces / f"{name}.json").write_text(
                dump_json({"epsilon": 0.01, "offset_mhz": 10.0})
            )
        config = tmp_path / "config.json"
        config.write_text(dump_json({"chi_mhz": 0.98, "trace_dir": str(traces)}))
        assert run(["calibrate", "--config", str(config)], tmp_path) == 3
        error = json.loads(capsys.readouterr().err)
        assert "flatline.csv" in error["message"]

    def test_missing_sidecar_exits_2(self, tmp_path):
        traces = tmp_path / "traces"
        traces.mkdir()
        times = np.arange(0.0, 3.0, 0.01)
        write_csv(traces / "orphan.csv", "time_us,signal", zip(times, np.cos(times)))
        config = tmp_path / "config.json"
        config.write_text(dump_json({"chi_mhz": 0.98, "trace_dir": str(traces)}))
        assert run(["calibrate", "--config", str(config)], tmp_path) == 2


def trace_dir_config(tmp_path, traces):
    """A config whose ``trace_dir`` holds ``traces``: name -> (signal, sidecar or None)."""
    directory = tmp_path / "traces"
    directory.mkdir()
    times = np.arange(0.0, 3.0, 0.004)
    for name, (signal, sidecar) in traces.items():
        write_csv(directory / f"{name}.csv", "time_us,signal", zip(times, signal(times)))
        if sidecar is not None:
            (directory / f"{name}.json").write_text(dump_json(sidecar))
    config = tmp_path / "config.json"
    config.write_text(dump_json({"chi_mhz": 0.98, "trace_dir": str(directory)}))
    return str(config)


def constant(times):
    return np.full(times.size, 0.5)


def ringing(times):
    return 0.4 * np.cos(2 * math.pi * 10.0 * times) + 0.5


RAMSEY_SIDECAR = {"epsilon": 0.01, "offset_mhz": 10.0}


class TestTraceBatch:
    """``calibrate`` and ``fit-flux-noise`` read every trace, then fit each."""

    def test_calibrate_names_every_failed_fit(self, tmp_path, capsys):
        # a constant signal has no fringe to fit
        config = trace_dir_config(
            tmp_path,
            {name: (constant, RAMSEY_SIDECAR) for name in ("flat_a", "flat_b")},
        )
        out = tmp_path / "out"
        assert run(["calibrate", "--config", config], out) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "FitError"
        assert error["message"].startswith("trace fits failed for: flat_a.csv: ")
        assert "; flat_b.csv: " in error["message"]
        assert not out.exists()

    def test_fit_flux_noise_names_every_failed_fit(self, tmp_path, capsys, monkeypatch):
        # a constant echo signal fits a zero decay rate, so the fit is made
        # to fail here; the loop under test is the one calibrate runs
        def refuse(times, signal):
            raise zk.FitError("exponential fit did not converge")

        monkeypatch.setattr("zenokit.cli.fit_exponential", refuse)
        config = trace_dir_config(
            tmp_path, {name: (constant, {"flux_amp": 0.5}) for name in ("flat_a", "flat_b")}
        )
        out = tmp_path / "out"
        assert run(["fit-flux-noise", "--config", config], out) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "FitError"
        assert error["message"] == (
            "trace fits failed for: flat_a.csv: exponential fit did not converge; "
            "flat_b.csv: exponential fit did not converge"
        )
        assert not out.exists()

    def test_fit_flux_noise_refuses_inverted_echo(self, tmp_path, capsys):
        # an unchecked fit takes -exp(-t) on these times as a converged
        # decay with amplitude -0.18 and rate 4e10/us
        traces = tmp_path / "traces"
        traces.mkdir()
        times = np.linspace(0.1, 2.0, 40)
        write_csv(traces / "inverted.csv", "time_us,signal", zip(times, -np.exp(-times)))
        (traces / "inverted.json").write_text(dump_json({"flux_amp": 0.5}))
        config = tmp_path / "config.json"
        config.write_text(dump_json({"trace_dir": str(traces)}))
        out = tmp_path / "out"
        assert run(["fit-flux-noise", "--config", str(config)], out) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "FitError"
        assert error["message"].startswith("trace fits failed for: inverted.csv: ")
        assert not out.exists()

    def test_every_trace_is_read_before_the_first_fit(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(trace):
            calls.append(trace)
            return zk.fit_damped_sine(trace)

        monkeypatch.setattr("zenokit.cli.fit_damped_sine", counting)
        config = trace_dir_config(
            tmp_path, {"a": (ringing, RAMSEY_SIDECAR), "b": (ringing, None)}
        )
        out = tmp_path / "out"
        assert run(["calibrate", "--config", config], out) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ParseError"
        assert "b.json" in error["message"]
        assert calls == []
        assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "calibrate", "oracle", "fit-flux-noise"])
def test_missing_config_exits_2(command, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([command], out) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ParseError",
        "message": "this subcommand requires --config",
        "exit_code": 2,
    }
    assert not out.exists()


GOOD_TRACE = "time_us,signal\n0.0,0.9\n0.004,0.8\n"
GOOD_RAMSEY_SIDECAR = dump_json({"epsilon": 0.01, "offset_mhz": 10.0})


def config_input(tmp_path, text, command="predict"):
    """A ``command`` run whose config file holds ``text``."""
    config = tmp_path / "config.json"
    config.write_text(text)
    return [command, "--config", str(config)], str(config)


def config_key_input(tmp_path, command, payload, key):
    """A ``command`` run whose config gives ``key`` a value of the wrong type."""
    argv, _ = config_input(tmp_path, dump_json(payload), command)
    return argv, repr(key)


def trace_input(tmp_path, trace=GOOD_TRACE, sidecar=GOOD_RAMSEY_SIDECAR, command="calibrate"):
    """A one-trace ``calibrate`` (or ``fit-flux-noise``) run."""
    traces = tmp_path / "traces"
    traces.mkdir()
    (traces / "t.csv").write_text(trace)
    (traces / "t.json").write_text(sidecar)
    config = tmp_path / "config.json"
    config.write_text(dump_json({"chi_mhz": 0.98, "trace_dir": str(traces)}))
    # the error names the trace or its sidecar
    return [command, "--config", str(config)], str(traces / "t")


def calibration_input(tmp_path, payload):
    """A ``predict`` run whose calibration JSON holds ``payload``."""
    calibration = tmp_path / "cal.json"
    calibration.write_text(dump_json(payload))
    config = tmp_path / "config.json"
    config.write_text(
        dump_json(
            {
                "spectrum_csv": str(DATA / "spectrum_flat.csv"),
                "calibration_json": str(calibration),
                "qubit_freq_mhz": 4884.0,
                "amplitudes": [0.0],
            }
        )
    )
    return ["predict", "--config", str(config)], str(calibration)


def freq_literal_input(tmp_path, literal):
    """A ``predict`` run whose config holds the JSON text ``literal`` as
    ``qubit_freq_mhz``; ``json.dumps`` cannot write ``1e400`` or a huge int."""
    text = dump_json({**PREDICT, "qubit_freq_mhz": 1234.5}).replace("1234.5", literal)
    argv, _ = config_input(tmp_path, text)
    return argv, "'qubit_freq_mhz'"


def one_row_t1_input(tmp_path):
    """A ``convert-t1`` run on a survival CSV of one row."""
    source = tmp_path / "t1.csv"
    write_csv(source, "freq_mhz,p1", [(4000.0, 0.5)])
    return ["convert-t1", "--input", str(source), "--t-delay", "30.0"], str(source)


CALIBRATION = {"S_mhz": 825.0, "K_mhz": 5619.0, "R_mhz": 429.0, "chi_mhz": 0.98}
PREDICT = {
    "spectrum_csv": str(DATA / "spectrum_flat.csv"),
    "calibration_json": str(DATA / "calibration.json"),
    "qubit_freq_mhz": 4884.0,
    "amplitudes": [0.0, 0.01],
}
DEFECT = {"freq_mhz": 4300.0, "coupling_mhz": 0.1, "decay_per_us": 10.0}
ORACLE = {"defect": DEFECT, "map_detunings_mhz": [0.0], "map_dephasings_mhz": [0.1]}

MALFORMED_INPUTS = {
    "config-not-json": lambda tmp: config_input(tmp, "{not json"),
    "config-not-object": lambda tmp: config_input(tmp, "[1, 2]"),
    "sidecar-not-json": lambda tmp: trace_input(tmp, sidecar="{"),
    "sidecar-not-object": lambda tmp: trace_input(tmp, sidecar='"epsilon"'),
    "sidecar-missing-key": lambda tmp: trace_input(tmp, sidecar=dump_json({"epsilon": 0.01})),
    "sidecar-non-numeric": lambda tmp: trace_input(
        tmp, sidecar=dump_json({"epsilon": "strong", "offset_mhz": 10.0})
    ),
    "flux-sidecar-missing-key": lambda tmp: trace_input(
        tmp, sidecar=dump_json({"epsilon": 0.01}), command="fit-flux-noise"
    ),
    "calibration-missing-field": lambda tmp: calibration_input(
        tmp, {k: v for k, v in CALIBRATION.items() if k != "R_mhz"}
    ),
    "calibration-non-numeric": lambda tmp: calibration_input(tmp, {**CALIBRATION, "K_mhz": [1]}),
    "calibration-zero-chi": lambda tmp: calibration_input(tmp, {**CALIBRATION, "chi_mhz": 0.0}),
    "trace-nan": lambda tmp: trace_input(tmp, trace="time_us,signal\n0.0,0.9\n0.004,nan\n"),
    "trace-extra-column": lambda tmp: trace_input(
        tmp, trace="time_us,signal\n0.0,0.9\n0.004,0.8,0.7\n"
    ),
    "trace-no-rows": lambda tmp: trace_input(tmp, trace="time_us,signal\n"),
    "config-defect-not-object": lambda tmp: config_key_input(
        tmp,
        "oracle",
        {"defect": [4300, 0.1, 10], "map_detunings_mhz": [0.0], "map_dephasings_mhz": [0.0]},
        "freq_mhz",
    ),
    "config-spectrum-path-not-string": lambda tmp: config_key_input(
        tmp,
        "predict",
        {
            "spectrum_csv": 5,
            "calibration_json": str(DATA / "calibration.json"),
            "qubit_freq_mhz": 4884.0,
            "amplitudes": [0.0],
        },
        "spectrum_csv",
    ),
    "config-traces-not-paths": lambda tmp: config_key_input(
        tmp, "calibrate", {"chi_mhz": 0.98, "traces": [1, 2]}, "traces"
    ),
    "config-traces-not-list": lambda tmp: config_key_input(
        tmp, "calibrate", {"chi_mhz": 0.98, "traces": "x.csv"}, "traces"
    ),
    "config-trace-dir-null": lambda tmp: config_key_input(
        tmp, "calibrate", {"chi_mhz": 0.98, "trace_dir": None}, "trace_dir"
    ),
    # float(True) is 1.0, so a boolean would otherwise pass as a number
    "config-freq-bool": lambda tmp: config_key_input(
        tmp, "predict", {**PREDICT, "qubit_freq_mhz": True}, "qubit_freq_mhz"
    ),
    "config-amplitude-bool": lambda tmp: config_key_input(
        tmp, "predict", {**PREDICT, "amplitudes": [True, 0.01]}, "amplitudes"
    ),
    "config-defect-decay-bool": lambda tmp: config_key_input(
        tmp, "oracle", {**ORACLE, "defect": {**DEFECT, "decay_per_us": False}}, "decay_per_us"
    ),
    "config-amplitudes-not-list": lambda tmp: config_key_input(
        tmp, "predict", {**PREDICT, "amplitudes": 5}, "amplitudes"
    ),
    "config-window-one-value": lambda tmp: config_key_input(
        tmp, "predict", {**PREDICT, "window_mhz": [4880]}, "window_mhz"
    ),
    "config-map-not-list": lambda tmp: config_key_input(
        tmp, "oracle", {**ORACLE, "map_detunings_mhz": "x"}, "map_detunings_mhz"
    ),
    "config-oracle-dephasing-not-number": lambda tmp: config_key_input(
        tmp, "oracle", {**ORACLE, "oracle_dephasings_mhz": [0.1, "a"]}, "oracle_dephasings_mhz"
    ),
    # every JSON number must be finite; these used to crash or run on
    "config-freq-infinity": lambda tmp: freq_literal_input(tmp, "Infinity"),
    "config-freq-nan": lambda tmp: freq_literal_input(tmp, "NaN"),
    "config-freq-1e400": lambda tmp: freq_literal_input(tmp, "1e400"),
    "config-freq-400-digit-int": lambda tmp: freq_literal_input(tmp, "1" + "0" * 399),
    "config-freq-numeric-string": lambda tmp: freq_literal_input(tmp, '"4884"'),
    "sidecar-epsilon-bool": lambda tmp: trace_input(
        tmp, sidecar=dump_json({"epsilon": True, "offset_mhz": 10.0})
    ),
    "sidecar-epsilon-nan": lambda tmp: trace_input(
        tmp, sidecar=dump_json({"epsilon": float("nan"), "offset_mhz": 10.0})
    ),
    "calibration-stark-nan": lambda tmp: calibration_input(
        tmp, {**CALIBRATION, "S_mhz": float("nan")}
    ),
    "calibration-dephasing-bool": lambda tmp: calibration_input(
        tmp, {**CALIBRATION, "R_mhz": True}
    ),
    "convert-t1-one-row": one_row_t1_input,
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_input_exits_2(case, tmp_path, capsys):
    argv, culprit = MALFORMED_INPUTS[case](tmp_path)
    assert run(argv, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert error["exit_code"] == 2
    assert culprit in error["message"]
    if case in ("trace-nan", "trace-extra-column"):
        assert f"{culprit}.csv:3:" in error["message"]
    assert not (tmp_path / "out").exists()


class TestOracleCommand:
    def test_stability_error_exits_4(self, tmp_path, capsys, monkeypatch):
        # with no trace tolerance, the first sample's round-off trips the check
        monkeypatch.setattr(zk.lindblad, "TRACE_TOL", 0.0)
        out = tmp_path / "out"
        assert run(["oracle", "--config", str(DATA / "oracle_config.json")], out) == 4
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "StabilityError"
        assert "dt" in error["message"]
        assert not out.exists()

    def test_outputs_have_expected_headers(self, tmp_path):
        assert run(["oracle", "--config", str(DATA / "oracle_config.json")], tmp_path) == 0
        comparison = (tmp_path / "comparison.csv").read_text().splitlines()
        assert comparison[0] == "# zenokit-v1"
        assert comparison[1] == (
            "gamma_phi_mhz,detuning_mhz,kk_per_us,eq2_per_us,oracle_per_us,dev_kk,dev_eq2,flag"
        )
        zeno_map = (tmp_path / "zeno_map.csv").read_text().splitlines()
        assert zeno_map[1] == "detuning_mhz,gamma_phi_mhz,Gamma_per_us"
        assert len(zeno_map) == 2 + 5 * 3  # tag + header + row-major grid

    def test_coordinates_echo_the_config(self, tmp_path):
        # none of these detunings survives defect.freq + 2 pi x - defect.freq
        # and a division by 2 pi unchanged; the columns must not carry that
        detunings, dephasings = [-1.3, 0.7, 2.9], [0.1, 0.35]
        config = tmp_path / "config.json"
        config.write_text(
            dump_json(
                {
                    "defect": {"freq_mhz": 4300.0, "coupling_mhz": 0.1, "decay_per_us": 10.0},
                    "qubit_decay_per_us": 0.01,
                    "map_detunings_mhz": detunings,
                    "map_dephasings_mhz": dephasings,
                    "oracle_detunings_mhz": [0.7],
                    "oracle_dephasings_mhz": [0.35],
                }
            )
        )
        assert run(["oracle", "--config", str(config)], tmp_path / "out") == 0
        comparison = np.loadtxt(tmp_path / "out" / "comparison.csv", delimiter=",", skiprows=2)
        assert (comparison[0], comparison[1]) == (0.35, 0.7)
        zeno_map = np.loadtxt(tmp_path / "out" / "zeno_map.csv", delimiter=",", skiprows=2)
        assert zeno_map[:, 0].tolist() == [d for d in detunings for _ in dephasings]
        assert zeno_map[:, 1].tolist() == dephasings * len(detunings)

    def test_benchmark_size_map_is_written_row_major(self, tmp_path):
        # 400 x 200, as the zeno-map benchmark runs it; the golden map is 5 x 3
        detunings = np.linspace(-8.0, 8.0, 400).tolist()
        dephasings = np.linspace(0.01, 4.0, 200).tolist()
        defect_cfg = {"freq_mhz": 4300.0, "coupling_mhz": 0.3, "decay_per_us": 12.0}
        config = tmp_path / "config.json"
        config.write_text(
            dump_json(
                {
                    "defect": defect_cfg,
                    "qubit_decay_per_us": 0.01,
                    "map_detunings_mhz": detunings,
                    "map_dephasings_mhz": dephasings,
                    "oracle_detunings_mhz": [],
                    "oracle_dephasings_mhz": [],
                }
            )
        )
        assert run(["oracle", "--config", str(config)], tmp_path / "out") == 0
        defect = zk.DefectParams(mhz_to_angular(4300.0), mhz_to_angular(0.3), 12.0)
        grid = zk.decay_rate_map(
            [mhz_to_angular(x) for x in detunings],
            [mhz_to_angular(x) for x in dephasings],
            defect,
            0.01,
        )
        expected = ["# zenokit-v1", "detuning_mhz,gamma_phi_mhz,Gamma_per_us"]
        for i, det in enumerate(detunings):
            for j, gphi in enumerate(dephasings):
                expected.append(f"{det!r},{gphi!r},{float(grid[i, j])!r}")
        expected.append("")  # the file ends in a newline
        # compare line by line: a diff of two 80000-line texts takes minutes
        written = (tmp_path / "out" / "zeno_map.csv").read_text().split("\n")
        assert len(written) == len(expected)
        bad = [k for k, (a, b) in enumerate(zip(written, expected)) if a != b]
        assert not bad, f"line {bad[0]}: {written[bad[0]]!r} != {expected[bad[0]]!r}"
        assert (tmp_path / "out" / "comparison.csv").read_text() == (
            "# zenokit-v1\n"
            "gamma_phi_mhz,detuning_mhz,kk_per_us,eq2_per_us,oracle_per_us,dev_kk,dev_eq2,flag\n"
        )

    @staticmethod
    def assert_golden_with(tmp_path, key, value):
        """The golden oracle config plus ``key`` still writes the golden bytes."""
        config = json.loads((DATA / "oracle_config.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(dump_json({**config, key: value}))
        assert run(["oracle", "--config", str(path)], tmp_path / "out") == 0
        for name in ("comparison.csv", "zeno_map.csv"):
            expected = (GOLDEN / "oracle" / name).read_bytes()
            assert (tmp_path / "out" / name).read_bytes() == expected

    def test_dt_us_key_is_ignored(self, tmp_path):
        # the step follows the rate scale; versions that read dt_us refused 1 us
        self.assert_golden_with(tmp_path, "dt_us", 1.0)

    def test_n_trunc_key_is_ignored(self, tmp_path):
        self.assert_golden_with(tmp_path, "n_trunc", 3)


class TestFitCommands:
    def test_fit_swap_recovers_coupling(self, tmp_path):
        assert run(
            ["fit-swap", "--input", str(DATA / "swap_linecut.csv"), "--f-guess", "3.2"],
            tmp_path,
        ) == 0
        payload = json.loads((tmp_path / "swap_fit.json").read_text())
        assert payload["coupling_mhz"] == pytest.approx(1.6, rel=0.02)
        assert payload["defect_decay_per_us"] == pytest.approx(1 / 0.103, rel=0.10)

    def test_fit_swap_refuses_time_reversed_linecut(self, tmp_path, capsys):
        # the span check alone would call this a too-short linecut
        header, *rows = (DATA / "swap_linecut.csv").read_text().splitlines()
        source = tmp_path / "reversed.csv"
        source.write_text("\n".join([header, *rows[::-1]]) + "\n")
        out = tmp_path / "out"
        assert run(["fit-swap", "--input", str(source), "--f-guess", "3.2"], out) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "DomainError"
        assert "strictly increasing" in error["message"]
        assert not out.exists()

    def test_fit_flux_noise_recovers_coefficient(self, tmp_path):
        assert run(["fit-flux-noise", "--config", str(DATA / "flux_config.json")], tmp_path) == 0
        payload = json.loads((tmp_path / "flux_noise_fit.json").read_text())
        assert payload["quadratic_coef_mhz"] == pytest.approx(0.3, rel=1e-6)
        assert len(payload["traces"]) == 4


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "zenokit",
                "convert-t1",
                "--input",
                str(DATA / "convert_t1_input.csv"),
                "--t-delay",
                "30.0",
                "--out",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "spectrum.csv").exists()

    def test_global_flags_before_subcommand(self, tmp_path):
        code = main(
            [
                "--out",
                str(tmp_path),
                "convert-t1",
                "--input",
                str(DATA / "convert_t1_input.csv"),
                "--t-delay",
                "30.0",
            ]
        )
        assert code == 0
        assert (tmp_path / "spectrum.csv").exists()
