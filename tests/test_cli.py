import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zenokit as zk
from conftest import degenerate_ramsey_signal, load_make_goldens, make_ramsey_signal
from zenokit.cli import main
from zenokit.io import (
    SPECTRUM_CSV_HEADER,
    dump_json,
    environment_fingerprint,
    read_calibration_json,
    read_columns_csv,
)
from zenokit.units import mhz_to_angular

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(argv, out_dir):
    return main([*argv, "--out", str(out_dir)])


def write_csv(path, header, rows):
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


# each golden with the command that wrote it, from the tool that writes them
GOLDEN_CASES = [(name, argv()) for name, argv in load_make_goldens().GOLDEN_COMMANDS.items()]


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

    def test_null_window_writes_the_golden(self, tmp_path):
        # a null window_mhz was never read, so it is not refused
        payload = json.loads((DATA / "predict_config.json").read_text())
        for key in ("spectrum_csv", "calibration_json"):
            payload[key] = str(DATA / payload[key])
        path = tmp_path / "config.json"
        path.write_text(dump_json({**payload, "window_mhz": None}))
        assert run(["predict", "--config", str(path)], tmp_path / "out") == 0
        for golden in sorted((GOLDEN / "predict").iterdir()):
            assert (tmp_path / "out" / golden.name).read_bytes() == golden.read_bytes()


class TestByteDeterminism:
    """The oracle and fit outputs do not depend on process state or BLAS threads.

    The convolution outputs (``predict``, and ``oracle``'s ``kk_per_us``,
    ``eq2_per_us`` and map) also keep their bytes when numpy's AVX-512
    dispatch is switched off or OpenBLAS runs another kernel.  Disabling
    a feature the host lacks changes nothing, so the check runs anywhere.
    """

    COMMANDS = {name: argv for name, argv in GOLDEN_CASES if name in ("oracle", "fit_swap", "calibrate")}
    KERNEL_SWITCHES = {
        "no_avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4"},
        "haswell_blas": {"OPENBLAS_CORETYPE": "Haswell"},
    }

    @staticmethod
    def outputs(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    def test_two_runs_in_one_process(self, tmp_path):
        for name, argv in self.COMMANDS.items():
            assert run(argv, tmp_path / name / "first") == 0
            assert run(argv, tmp_path / name / "second") == 0
            first = self.outputs(tmp_path / name / "first")
            assert first and first == self.outputs(tmp_path / name / "second"), name

    def test_blas_thread_count(self, tmp_path):
        for name, argv in self.COMMANDS.items():
            produced = []
            for threads in ("1", "2"):
                out = tmp_path / name / f"threads_{threads}"
                result = subprocess.run(
                    [sys.executable, "-m", "zenokit", *argv, "--out", str(out)],
                    capture_output=True,
                    text=True,
                    env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                )
                assert result.returncode == 0, result.stderr
                produced.append(self.outputs(out))
            assert produced[0] and produced[0] == produced[1], name

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

    def test_window_past_the_table_holds_its_end_rates(self):
        # the one edge rule: past either end the table holds its end rate,
        # so a window past its ends gives, for every context of the predict
        # fixture, the bits of the table padded with those rates at the
        # window's edges and integrated over its own range
        payload = json.loads((DATA / "predict_config.json").read_text())
        qubit = payload["qubit_freq_mhz"]
        calibration = read_calibration_json(DATA / payload["calibration_json"])
        freqs, rates = read_columns_csv(DATA / payload["spectrum_csv"], SPECTRUM_CSV_HEADER)
        window = mhz_to_angular(np.array([4860.0, 4910.0]) - qubit)
        table = zk.TabulatedSpectrum(mhz_to_angular(freqs - qubit), rates)
        padded = zk.TabulatedSpectrum(
            mhz_to_angular(np.r_[4860.0, freqs, 4910.0] - qubit), np.r_[rates[0], rates, rates[-1]]
        )
        assert window[0] < table.omega_min and table.omega_max < window[1]
        for eps in payload["amplitudes"]:
            context = zk.MeasurementContext.from_calibration(calibration, 0.0, eps)
            held = zk.decay_rate(table, context, window=tuple(window))
            assert held == zk.decay_rate(padded, context)

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

    @pytest.mark.parametrize("amplitudes,code", [([0.0, 0.05], 0), ([0.0, 0.4], 3)])
    def test_calibrated_range_reaches_predict(self, tmp_path, capsys, amplitudes, code):
        # calibrate's output records its largest amplitude, 0.05; predict
        # refuses amplitudes past it and writes nothing
        calibration = GOLDEN / "calibrate" / "calibration.json"
        assert read_calibration_json(calibration).max_epsilon == 0.05
        config = tmp_path / "config.json"
        config.write_text(dump_json({**PREDICT, "calibration_json": str(calibration),
                                     "amplitudes": amplitudes}))
        out = tmp_path / "out"
        assert run(["predict", "--config", str(config)], out) == code
        if code:
            error = json.loads(capsys.readouterr().err)
            assert error["error"] == "DomainError"
            assert "drive amplitude 0.4 is past the calibrated range" in error["message"]
            assert not out.exists()

    @pytest.mark.parametrize(
        "epsilon,message",
        [
            (1e80, "drive amplitude 1e+80 overflows a float"),
            (1e40, "has no weight in the window"),
        ],
    )
    def test_huge_amplitude_exits_3(self, tmp_path, capsys, epsilon, message):
        # with no calibrated range to refuse it, epsilon**4 overflows at
        # 1e80, and at 1e40 the filter sits so far out that its weight in
        # the window cancels to exactly 0
        config = tmp_path / "config.json"
        config.write_text(dump_json({**PREDICT, "spectrum_csv": str(DATA / "spectrum_hotspot.csv"),
                                     "amplitudes": [0.0, epsilon]}))
        out = tmp_path / "out"
        assert run(["predict", "--config", str(config)], out) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "DomainError"
        assert message in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", [100.0, 130.0])
    def test_far_filter_rate_stays_inside_the_table(self, tmp_path, epsilon):
        # the filter sits ~1e12 MHz off the table; its rate is a weighted
        # mean of the table's rates once the weight in the window does not
        # cancel (it used to come out 0.00669/us at 130, below them all)
        config = tmp_path / "config.json"
        spectrum = DATA / "spectrum_hotspot.csv"
        config.write_text(dump_json({**PREDICT, "spectrum_csv": str(spectrum),
                                     "amplitudes": [0.0, epsilon]}))
        assert run(["predict", "--config", str(config)], tmp_path / "out") == 0
        rate = json.loads((tmp_path / "out" / "predict.json").read_text())["results"][1]
        _, table = read_columns_csv(spectrum, SPECTRUM_CSV_HEADER)
        assert table.min() <= rate["gamma_per_us"] <= table.max()

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

    def test_frequencies_are_written_as_read(self, tmp_path):
        # both fail a round trip through rad/us: 5825.511000000001, 5831.706999999999
        source = tmp_path / "t1.csv"
        write_csv(source, "freq_mhz,p1", [(5825.511, 0.9), (5831.707, 0.8)])
        assert run(["convert-t1", "--input", str(source), "--t-delay", "30.0"], tmp_path) == 0
        rows = (tmp_path / "spectrum.csv").read_text().splitlines()[2:]
        assert [row.split(",")[0] for row in rows] == ["5825.511", "5831.707"]

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

    def test_negative_offset_exits_3(self, tmp_path, capsys):
        # the fitted fringe frequency is >= 0, so a negative offset gave a
        # wrong Stark shift with exit 0
        config = trace_dir_config(
            tmp_path, {"below": (ringing, {"epsilon": 0.01, "offset_mhz": -10.0})}
        )
        out = tmp_path / "out"
        assert run(["calibrate", "--config", config], out) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "DomainError"
        assert "offset_freq must be >= 0" in error["message"]
        assert not out.exists()

    def test_missing_sidecar_exits_2(self, tmp_path):
        traces = tmp_path / "traces"
        traces.mkdir()
        times = np.arange(0.0, 3.0, 0.01)
        write_csv(traces / "orphan.csv", "time_us,signal", zip(times, np.cos(times)))
        config = tmp_path / "config.json"
        config.write_text(dump_json({"chi_mhz": 0.98, "trace_dir": str(traces)}))
        assert run(["calibrate", "--config", str(config)], tmp_path) == 2

    def test_directory_at_the_sidecar_path_exits_2(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        times = np.arange(0.0, 3.0, 0.01)
        write_csv(traces / "ramsey.csv", "time_us,signal", zip(times, np.cos(times)))
        (traces / "ramsey.json").mkdir()
        config = tmp_path / "config.json"
        config.write_text(dump_json({"chi_mhz": 0.98, "trace_dir": str(traces)}))
        assert run(["calibrate", "--config", str(config)], tmp_path / "out") == 2
        assert str(traces / "ramsey.json") in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "out").exists()


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


def unit(times):
    return np.ones(times.size)


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

    def test_calibrate_names_only_the_failed_trace(self, tmp_path, capsys):
        # five fringes and a constant signal on one grid are fitted as one
        # batch; the constant row alone fails, and nothing is written
        traces = {
            f"good_{k}": (
                lambda times, k=k: make_ramsey_signal(times, stark_mhz=0.1 * (k + 1)),
                {"epsilon": 0.01 * (k + 1), "offset_mhz": 10.0},
            )
            for k in range(5)
        }
        config = trace_dir_config(tmp_path, {**traces, "flat": (constant, RAMSEY_SIDECAR)})
        out = tmp_path / "out"
        assert run(["calibrate", "--config", config], out) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "FitError"
        assert error["message"] == (
            "trace fits failed for: flat.csv: constant signal: nothing to fit"
        )
        assert not out.exists()

    def test_fit_flux_noise_names_only_the_failed_trace(self, tmp_path, capsys):
        # three decays and a signal of zeros, which has no positive amplitude
        traces = {
            f"echo_{k}": (
                lambda times, k=k: np.exp(-0.5 * (k + 1) * times), {"flux_amp": 0.25 * (k + 1)}
            )
            for k in range(3)
        }
        config = trace_dir_config(
            tmp_path, {**traces, "zeros": (lambda times: np.zeros(times.size), {"flux_amp": 1.0})}
        )
        out = tmp_path / "out"
        assert run(["fit-flux-noise", "--config", config], out) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "FitError"
        assert error["message"] == (
            "trace fits failed for: zeros.csv: "
            "exponential fit found amplitude 0.000e+00, not a positive decay"
        )
        assert not out.exists()

    def test_calibrate_names_a_degenerate_fit(self, tmp_path, capsys):
        # an unguarded fit converges on an alias of the fringe, which
        # calibrate would take into its Stark polynomial; the refusal names
        # the trace
        config = trace_dir_config(
            tmp_path,
            {"a": (ringing, RAMSEY_SIDECAR), "b": (degenerate_ramsey_signal, RAMSEY_SIDECAR)},
        )
        out = tmp_path / "out"
        assert run(["calibrate", "--config", config], out) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "FitError"
        assert error["message"].startswith(
            "trace fits failed for: b.csv: damped-sine fit is degenerate: its frequency "
        )
        assert not out.exists()

    def test_invalid_fit_input_names_its_file(self, tmp_path, capsys):
        # the fit inputs are built before any fit; a refused one names its trace
        config = trace_dir_config(
            tmp_path,
            {
                "a": (ringing, RAMSEY_SIDECAR),
                "b": (ringing, {**RAMSEY_SIDECAR, "offset_mhz": -10.0}),
            },
        )
        out = tmp_path / "out"
        assert run(["calibrate", "--config", config], out) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "DomainError"
        assert error["message"] == "b.csv: offset_freq must be >= 0 MHz, got -10.0"
        assert not out.exists()

    def test_fit_flux_noise_names_an_invalid_trace(self, tmp_path, capsys):
        # fit_exponential validates its samples itself, inside the fit loop
        traces = tmp_path / "traces"
        traces.mkdir()
        for name, times in (("a", [0.0, 0.1, 0.2, 0.3]), ("b", [0.0, 0.2, 0.1, 0.3])):
            write_csv(traces / f"{name}.csv", "time_us,signal", zip(times, [1.0, 0.9, 0.8, 0.7]))
            (traces / f"{name}.json").write_text(dump_json({"flux_amp": 0.1}))
        config = tmp_path / "config.json"
        config.write_text(dump_json({"trace_dir": str(traces)}))
        out = tmp_path / "out"
        assert run(["fit-flux-noise", "--config", str(config)], out) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "DomainError"
        assert error["message"] == "b.csv: times must be strictly increasing"
        assert not out.exists()

    def test_fit_flux_noise_names_every_failed_fit(self, tmp_path, capsys, monkeypatch):
        # a constant echo signal fits a zero decay rate, so the fits are made
        # to fail here; the loop under test is the one calibrate runs
        def refuse(traces):
            return [zk.FitError("exponential fit did not converge") for _ in traces]

        monkeypatch.setattr("zenokit.cli.fit_exponentials", refuse)
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

    def test_fit_flux_noise_writes_plus_zero_for_flat_echoes(self, tmp_path):
        # a flat trace's log-linear seed is minus a +0.0 slope, and its
        # rate, and the quadratic fit of the zero rates, were written as -0.0
        config = trace_dir_config(
            tmp_path, {f"flat_{amp}": (unit, {"flux_amp": amp}) for amp in (0.5, 1.0)}
        )
        out = tmp_path / "out"
        assert run(["fit-flux-noise", "--config", config], out) == 0
        text = (out / "flux_noise_fit.json").read_text()
        assert text.count('"gamma_phi_mhz": 0.0,') == 2
        assert text.count('"decay_rate": 0.0\n') == 4  # the rates and their sigmas
        assert '"quadratic_coef_mhz": 0.0,' in text
        assert "-0.0" not in text

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

        def counting(traces):
            calls.append(traces)
            return zk.fit_damped_sines(traces)

        monkeypatch.setattr("zenokit.cli.fit_damped_sines", counting)
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
    """A ``command`` run whose config gives ``key`` a wrong value, or none."""
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


def flag_input(tmp_path, flag, literal):
    """A ``convert-t1`` or ``fit-swap`` run on the fixtures whose number
    ``flag`` is given as ``literal``."""
    if flag == "--t-delay":
        argv = ["convert-t1", "--input", str(DATA / "convert_t1_input.csv")]
    else:
        argv = ["fit-swap", "--input", str(DATA / "swap_linecut.csv")]
    return [*argv, f"{flag}={literal}"], flag


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
    "calibration-range-non-numeric": lambda tmp: calibration_input(
        tmp, {**CALIBRATION, "max_epsilon": "0.05"}
    ),
    "calibration-range-negative": lambda tmp: calibration_input(
        tmp, {**CALIBRATION, "max_epsilon": -0.05}
    ),
    # its epsilon**4 overflows a float
    "calibration-range-overflows": lambda tmp: calibration_input(
        tmp, {**CALIBRATION, "max_epsilon": 1e80}
    ),
    "trace-nan": lambda tmp: trace_input(tmp, trace="time_us,signal\n0.0,0.9\n0.004,nan\n"),
    "trace-extra-column": lambda tmp: trace_input(
        tmp, trace="time_us,signal\n0.0,0.9\n0.004,0.8,0.7\n"
    ),
    "trace-no-rows": lambda tmp: trace_input(tmp, trace="time_us,signal\n"),
    "config-defect-not-object": lambda tmp: config_key_input(
        tmp,
        "oracle",
        {"defect": [4300, 0.1, 10], "map_detunings_mhz": [0.0], "map_dephasings_mhz": [0.0]},
        "coupling_mhz",
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
    # a retired key is refused even beside a trace set that would run
    "config-traces-retired": lambda tmp: config_key_input(
        tmp,
        "calibrate",
        {"chi_mhz": 0.98, "trace_dir": str(DATA / "traces"), "traces": []},
        "traces",
    ),
    "config-trace-dir-missing": lambda tmp: config_key_input(
        tmp, "calibrate", {"chi_mhz": 0.98}, "trace_dir"
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
    "config-window-retired": lambda tmp: config_key_input(
        tmp, "predict", {**PREDICT, "window_mhz": [4880.0, 4888.0]}, "window_mhz"
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
    # argparse's float() takes these; they used to run on
    "convert-t1-delay-inf": lambda tmp: flag_input(tmp, "--t-delay", "inf"),
    "convert-t1-delay-1e400": lambda tmp: flag_input(tmp, "--t-delay", "1e400"),
    "convert-t1-delay-nan": lambda tmp: flag_input(tmp, "--t-delay", "nan"),
    # a delay <= 0 gives no rate; it is refused before any read, so a
    # missing input is never reached
    "convert-t1-delay-zero": lambda tmp: flag_input(tmp, "--t-delay", "0"),
    "convert-t1-delay-negative": lambda tmp: (
        ["convert-t1", "--input", str(tmp / "missing.csv"), "--t-delay=-30"],
        "--t-delay",
    ),
    "fit-swap-f-guess-nan": lambda tmp: flag_input(tmp, "--f-guess", "nan"),
    "fit-swap-f-guess-inf": lambda tmp: flag_input(tmp, "--f-guess", "inf"),
    "fit-swap-f-guess-minus-inf": lambda tmp: flag_input(tmp, "--f-guess", "-inf"),
    # a guess <= 0 used to drop the peak window and the span check
    "fit-swap-f-guess-zero": lambda tmp: flag_input(tmp, "--f-guess", "0"),
    "fit-swap-f-guess-negative": lambda tmp: flag_input(tmp, "--f-guess", "-3.2"),
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

    def test_qubit_that_does_not_decay_exits_3(self, tmp_path, capsys):
        # an uncoupled defect and no qubit decay leave nothing to decay
        config = tmp_path / "config.json"
        config.write_text(dump_json({
            **ORACLE,
            "defect": {**DEFECT, "coupling_mhz": 0.0},
            "qubit_decay_per_us": 0.0,
            "map_detunings_mhz": [0.0, 1.0],
            "oracle_detunings_mhz": [0.0],
            "oracle_dephasings_mhz": [0.5],
        }))
        out = tmp_path / "out"
        assert run(["oracle", "--config", str(config)], out) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "DomainError"
        assert error["message"] == (
            "context (0 rad/us, 3.14159/us): the qubit does not decay"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "coupling_mhz,problem",
        [
            (1e-9, "takes 284965828994074935296 steps of dt=1.000e-03 us; at most 4503599"),
            (1e-160, "t_final must be finite and > 0, got inf"),
        ],
    )
    def test_qubit_that_barely_decays_exits_3(self, tmp_path, capsys, coupling_mhz, problem):
        # a nearly uncoupled defect stretches the trajectory to ~1e17 us,
        # whose steps' rounding alone would break the trace tolerance, or
        # past the largest float
        config = tmp_path / "config.json"
        config.write_text(dump_json({
            **ORACLE,
            "defect": {**DEFECT, "coupling_mhz": coupling_mhz},
            "qubit_decay_per_us": 0.0,
            "oracle_detunings_mhz": [0.0],
            "oracle_dephasings_mhz": [0.0],
        }))
        out = tmp_path / "out"
        assert run(["oracle", "--config", str(config)], out) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "DomainError"
        assert error["message"].startswith("context (0 rad/us, 0/us): ")
        assert problem in error["message"]
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

    def test_map_bytes_match_per_cell_repr(self, tmp_path):
        # -0.0 apart from 0.0, a detuning given twice, and JSON ints that
        # are written as floats
        detunings, dephasings = [-3, -0.0, 0.0, 1.5, 1.5, 2], [0, -0.0, 0.25, 1]
        config = tmp_path / "config.json"
        config.write_text(
            dump_json(
                {
                    "defect": {"freq_mhz": 4300.0, "coupling_mhz": 0.2, "decay_per_us": 8},
                    "qubit_decay_per_us": 0.01,
                    "map_detunings_mhz": detunings,
                    "map_dephasings_mhz": dephasings,
                    "oracle_detunings_mhz": [],
                    "oracle_dephasings_mhz": [],
                }
            )
        )
        assert run(["oracle", "--config", str(config)], tmp_path / "out") == 0
        defect = zk.DefectParams(0.0, mhz_to_angular(0.2), 8.0)
        grid = zk.decay_rate_map(
            [mhz_to_angular(x) for x in detunings],
            [mhz_to_angular(x) for x in dephasings],
            defect,
            0.01,
        )
        columns = (
            np.repeat(np.array(detunings, dtype=float), len(dephasings)),
            np.tile(np.array(dephasings, dtype=float), len(detunings)),
            grid.ravel(),
        )
        expected = "# zenokit-v1\ndetuning_mhz,gamma_phi_mhz,Gamma_per_us\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns)
        )
        written = (tmp_path / "out" / "zeno_map.csv").read_text()
        assert written == expected
        first_row = zip(["0.0", "-0.0", "0.25", "1.0"], grid[0].tolist())
        assert written.splitlines()[2:6] == [f"-3.0,{gphi},{rate!r}" for gphi, rate in first_row]

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

    @pytest.mark.parametrize("freq_mhz", [0.0, 6000.0])
    def test_outputs_do_not_depend_on_the_carrier(self, tmp_path, freq_mhz):
        # the oracle runs in the defect's frame, so freq_mhz is not read
        defect = json.loads((DATA / "oracle_config.json").read_text())["defect"]
        self.assert_golden_with(tmp_path, "defect", {**defect, "freq_mhz": freq_mhz})

    def test_rates_keep_the_digits_of_the_mhz_inputs(self, tmp_path):
        # a 4.3 GHz carrier in rad/us has an ulp of 3.6e-12, ~1e-13 of
        # these rates; offsets from the defect keep every digit
        mpmath = pytest.importorskip("mpmath")
        config = json.loads((DATA / "oracle_config.json").read_text())
        assert run(["oracle", "--config", str(DATA / "oracle_config.json")], tmp_path) == 0
        comparison = np.loadtxt(tmp_path / "comparison.csv", delimiter=",", skiprows=2)
        zeno_map = np.loadtxt(tmp_path / "zeno_map.csv", delimiter=",", skiprows=2)
        points = [(det, gphi, eq2) for gphi, det, _, eq2, *_ in comparison]
        points += [tuple(row) for row in zeno_map]
        assert len(points) == 4 + 15
        with mpmath.workdps(40):
            two_pi = 2 * mpmath.pi
            coupling = two_pi * mpmath.mpf(config["defect"]["coupling_mhz"])
            gamma_q = mpmath.mpf(config["qubit_decay_per_us"])
            half_decay = mpmath.mpf(config["defect"]["decay_per_us"]) / 2
            for det, gphi, rate in points:
                width = two_pi * mpmath.mpf(gphi) + half_decay - gamma_q / 2
                delta = two_pi * mpmath.mpf(det)
                exact = gamma_q + 2 * coupling**2 * width / (width**2 + delta**2)
                assert rate == pytest.approx(float(exact), rel=1e-15, abs=0.0)


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
