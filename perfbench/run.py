"""zenokit benchmark: one closed-loop client driving ``zenokit.cli.main``.

Usage, from the repository root::

    python3 perfbench/run.py --workload predict-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each run generates its inputs from ``--seed``, computes independent
references, then calls the CLI in-process back to back (each invocation
starts when the previous one ends) for ``--seconds``, gating every
output outside the timed interval.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` a separate traced run's per-layer
metrics.  Human-readable lines come first; the last stdout line is one
JSON object.  The exit code is 1 when any invocation failed or missed a
correctness gate, 2 when the program under test cannot be found.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import nullcontext, redirect_stderr
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench import workloads  # noqa: E402  (needs ROOT on the path)
from perfbench.speed import SpeedSampler  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_out"
COLD_STARTS = 5
COLD_TIMEOUT_S = 120.0
# setup_s is a cold start's time at the machine speed where the probe in
# speed.py takes this long (its nominal duration on the reference host)
REFERENCE_PROBE_S = 0.5e-3
P90_MIN_SAMPLES = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_probe": "1/probe",
    "invocation_p50_probe": "probe",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}
LAYER_FUNCTIONS = (
    "cli.main",
    "spectrum.read_spectrum_csv", "spectrum.rate_at", "spectrum.format_spectrum_csv",
    "kk.sweep", "kk.decay_rate",
    "defect.decay_rate_map", "defect.generalized_purcell",
    "lindblad.validate_kk", "lindblad.evolve", "lindblad.check_density_matrix",
    "lindblad.extract_decay_rate",
    "fits.fit_damped_sine", "fits.fit_exponential", "fits.fit_swap_chevron",
    "fits.lm_minimize",
    "io.read_columns_csv", "io.read_sidecar_json", "io.read_calibration_json",
    "io.format_table_csv", "io.dump_json", "io.atomic_write_text",
)
LAYER_COUNTS = {
    "kk.grid_points": "count/inv",
    "spectrum.rate_at.points": "count/inv",
    "spectrum.rows_parsed": "count/inv",
    "lindblad.rk4_steps": "count/inv",
    "lindblad.samples": "count/inv",
    "lindblad.oscillation_warnings": "count/inv",
    "fits.lm_iterations": "count/inv",
    "io.rows_parsed": "count/inv",
    "io.bytes_read": "B/inv",
    "io.bytes_written": "B/inv",
    "defect.map_points": "count/inv",
}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zenokit" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no zenokit sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import zenokit

    if Path(zenokit.__file__).resolve().parent != (SRC / "zenokit").resolve():
        sys.stderr.write(f"perfbench: imported zenokit from {zenokit.__file__}, not {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        pool = workloads.build(args.workload, args.seed, work, zenokit)
        client = Client(pool)
        client.invoke(0)  # warm-up: imports, caches, first-touch allocations
        if args.trace:
            metrics, raw, durations, tracer = traced_run(client, args.seconds)
        else:
            metrics, raw, durations = end_to_end_run(client, args.seconds, work)
            tracer = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, client, metrics, raw, durations, tracer)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Client:
    """Runs pool invocations one after another and gates each one."""

    def __init__(self, pool):
        self.pool = pool
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.failures: list[str] = []
        self.sampler: SpeedSampler | None = None

    def invoke(self, index: int) -> tuple[float, float, float] | None:
        """One timed invocation: (start, end, duration), or None if it failed.

        The duration leaves out time the speed sampler spent inside it.
        """
        from zenokit.cli import main as cli_main

        invocation = self.pool[index % len(self.pool)]
        stderr = StringIO()
        code = 0
        sampled = self.sampler.spent if self.sampler else 0.0
        start = perf_counter()
        try:
            with redirect_stderr(stderr):
                for argv in invocation.argvs:
                    if self.tracer is not None:
                        self.tracer.invocation = index
                        code = self.tracer.call("cli.main", cli_main, (argv,), {})
                    else:
                        code = cli_main(argv)
                    if code:
                        break
        except Exception:  # a crash is a failed invocation, not a dead benchmark
            code = -1
            stderr.write(traceback.format_exc())
        end = perf_counter()
        duration = end - start - ((self.sampler.spent - sampled) if self.sampler else 0.0)
        ok = self.record(index, code, stderr.getvalue(), invocation.check)
        return (start, end, duration) if ok else None

    def record(self, index, code, stderr, check) -> bool:
        self.attempted += 1
        problems = [f"exit code {code}: {stderr.strip()}"] if code else []
        if not code:
            gate = check()
            self.worst = max(self.worst, gate.worst)
            problems += gate.errors
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"invocation {index}: " + "; ".join(problems)[:2000])
            return False
        return True

    def passes(self, seconds: float):
        """Pool indices for ``seconds``, rounded up to whole passes over the pool.

        Whole passes give every run the same mix of invocations, which
        matters where a pool holds a few invocations of unequal cost.
        Every loop starts at the same pool index.
        """
        index = 1
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or (index - 1) % len(self.pool):
            yield index
            index += 1

    def loop(self, seconds: float, sample_speed: bool = False) -> Samples:
        """Closed loop over :meth:`passes`.

        With ``sample_speed`` each invocation is also divided by the
        machine-speed probe around it (see ``speed.py``).
        """
        samples = Samples()
        timed = []
        self.sampler = SpeedSampler() if sample_speed else None
        try:
            with self.sampler or nullcontext():
                for index in self.passes(seconds):
                    result = self.invoke(index)
                    if result is not None:
                        timed.append(result)
                        samples.items += self.pool[index % len(self.pool)].items
        finally:
            sampler, self.sampler = self.sampler, None
        samples.durations = [duration for _, _, duration in timed]
        if sampler is not None and sampler.durations:
            samples.relative = [duration / sampler.around(start, end)
                                for start, end, duration in timed]
            samples.probe_s = statistics.median(sampler.durations)
        return samples


@dataclass
class Samples:
    durations: list[float] = field(default_factory=list)
    relative: list[float] = field(default_factory=list)  # durations in probe units
    probe_s: float = 0.0
    items: int = 0


def end_to_end_run(client: Client, seconds: float, work: Path):
    """Gated metrics for the JSON line, and the raw times printed beside them."""
    setup, walls, rss = cold_starts(client, work)
    samples = client.loop(seconds, sample_speed=True)
    durations, relative = samples.durations or [0.0], samples.relative or [0.0]
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_probe": samples.items / max(sum(relative), 1e-300),
        "invocation_p50_probe": statistics.median(relative),
        "accuracy_digits": -math.log10(max(client.worst, sys.float_info.epsilon)),
        "peak_rss_mb": rss,
    }
    n = len(samples.durations)
    raw = {
        "setup_wall_s": (statistics.median(walls), "s"),
        "items_per_s": (samples.items / max(sum(durations), 1e-300), "1/s"),
        "invocation_p50_ms": (1e3 * statistics.median(durations), f"ms  (n={n})"),
    }
    if n >= P90_MIN_SAMPLES:
        raw["invocation_p90_ms"] = (1e3 * statistics.quantiles(durations, n=10)[8], f"ms  (n={n})")
    raw["probe_ms"] = (1e3 * samples.probe_s, "ms")
    return ({name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()},
            raw, samples.durations)


def cold_starts(client: Client, work: Path):
    """Fresh interpreters that import zenokit.cli and run the first invocation.

    Each start is timed from spawn to the end of its first invocation.
    The first start goes on through one whole pass over the pool, and its
    peak RSS is the workload's.  Returns each start's time at the
    reference probe speed, its wall time, and that RSS in MB.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    setup, walls, rss = [], [], 0.0
    for k in range(COLD_STARTS):
        pool = client.pool if k == 0 else client.pool[:1]
        command = [sys.executable, str(Path(__file__).with_name("cold.py")),
                   json.dumps([invocation.argvs for invocation in pool])]
        with open(work / "cold.err", "w+", encoding="utf-8") as err:
            start = perf_counter()
            proc = subprocess.Popen(command, env=env, cwd=work, stdout=subprocess.PIPE,
                                    stderr=err, text=True)
            watchdog = threading.Timer(COLD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                first = proc.stdout.readline()
                wall = perf_counter() - start
                last = proc.stdout.read().strip()
                proc.wait()
            finally:
                watchdog.cancel()
                proc.stdout.close()
            err.seek(0)
            stderr = err.read()
        try:
            first, last = json.loads(first), json.loads(last)
            exits = last["exits"]
        except (ValueError, KeyError):  # the child died before reporting
            first, last, exits = None, None, [proc.returncode or -1] * len(pool)
        ok = [client.record(i, code, stderr, invocation.check)
              for i, (code, invocation) in enumerate(zip(exits, pool))]
        if first is not None and ok[0]:
            speed = REFERENCE_PROBE_S / (first["probe_s"] or REFERENCE_PROBE_S)
            setup.append((wall - first["sampled_s"]) * speed)
            walls.append(wall)
        if k == 0 and last is not None and all(ok):
            rss = last["maxrss_kb"] / 1024.0
    return setup or [0.0], walls or [0.0], rss


def traced_run(client: Client, seconds: float):
    from perfbench.tracer import Tracer

    tracer = Tracer()
    modules = {name: sys.modules[f"zenokit.{name}"]
               for name in ("cli", "kk", "spectrum", "defect", "lindblad", "fits", "io")}
    traced, untraced, overhead = [], [], []
    for index in client.passes(seconds):
        # the same invocation untraced and traced, back to back, so both
        # see the same machine phase; the order flips between invocations
        durations = {}
        for tracing in (False, True) if index % 2 else (True, False):
            if tracing:
                tracer.install(modules)
                client.tracer = tracer
            try:
                result = client.invoke(index)
            finally:
                tracer.uninstall()
                client.tracer = None
            if result is not None:
                durations[tracing] = result[2]
        if True in durations:
            traced.append(durations[True])
        if False in durations:
            untraced.append(durations[False])
        if len(durations) == 2:
            overhead.append(durations[True] - durations[False])
    n = max(len(traced), 1)
    metrics = {}
    for name in LAYER_FUNCTIONS:
        calls, total, self_time = tracer.totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / n, "count/inv")
        metrics[f"{name}.s"] = (total / n, "s/inv")
        metrics[f"{name}.self_s"] = (self_time / n, "s/inv")
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = (tracer.counts.get(name, 0.0) / n, unit)
    lm_calls = tracer.totals.get("fits.lm_minimize", (0,))[0]
    metrics["fits.converged_ratio"] = (
        tracer.counts.get("fits.lm_converged", 0.0) / lm_calls if lm_calls else 0.0, "1")
    metrics["lindblad.max_trace_error"] = (tracer.counts.get("lindblad.max_trace_error", 0.0), "1")
    traced_p50 = 1e3 * statistics.median(traced) if traced else 0.0
    untraced_p50 = 1e3 * statistics.median(untraced) if untraced else 0.0
    metrics["trace.spans"] = (len(tracer.spans) / n, "count/inv")
    metrics["trace.invocation_p50_ms"] = (traced_p50, "ms")
    metrics["trace.untraced_p50_ms"] = (untraced_p50, "ms")
    metrics["trace.overhead_ms"] = (1e3 * statistics.median(overhead) if overhead else 0.0, "ms")
    return metrics, {}, traced, tracer


def report(args, client: Client, metrics: dict, raw: dict, durations: list[float],
           tracer) -> int:
    """Print every metric by name and unit, save the run, end with the JSON line."""
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} invocations={len(durations)} (closed loop, 1 client)")
    for name, (value, unit) in {**metrics, **raw}.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':<44} {client.failed / max(client.attempted, 1):>16.6g} "
          f"({client.failed}/{client.attempted})")
    for line in client.failures:
        print(f"  FAILED {line}")
    env = fingerprint()
    print("  env " + json.dumps({k: env[k] for k in ("python", "numpy", "nproc", "cpu_model")}))
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "raw": {name: value for name, (value, _) in raw.items()},
         "failures": client.failures, "invocation_s": durations, "env": env}, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(RESULTS / f"{stem}-spans.jsonl")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, end-to-end then traced, each in its own process."""
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", repr(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
    return status


def fingerprint() -> dict:
    """Where the numbers came from: interpreter, numpy/BLAS, CPU, thread settings."""
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = {key: config["Build Dependencies"].get(key) for key in ("blas", "lapack")}
    except Exception as exc:  # older numpy: no dict mode
        blas = {"error": repr(exc)}
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            fields = [(index / f).read_text().strip() for f in ("level", "type", "size")]
        except OSError:
            continue
        caches[f"L{fields[0]} {fields[1]}"] = fields[2]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "caches": caches,
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


if __name__ == "__main__":
    sys.exit(main())
