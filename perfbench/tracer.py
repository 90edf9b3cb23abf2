"""Span tracing around zenokit's layer boundaries, from the benchmark only.

:meth:`Tracer.install` replaces the names that callers resolve (module
globals such as ``zenokit.cli.read_spectrum_csv`` and
``zenokit.lindblad.evolve``, and the ``rate_at`` methods) with wrappers,
and :meth:`Tracer.uninstall` puts the originals back; zenokit's source
is untouched.  Each span records name, start, end, parent span and
invocation id and is kept in memory until :meth:`Tracer.write_spans`.
Functions called in tight loops (``rate_at``, ``check_density_matrix``,
``generalized_purcell``) are aggregated instead: their calls and time
are counted, and charged to the enclosing span's child time, but no span
is kept per call.

A span's self time is its duration minus the time of the wrapped calls
it made, so self times add up to the traced wall time.
"""
from __future__ import annotations

import inspect
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from .refs import evolve_steps


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, s, self_s
        self.counts = defaultdict(float)
        self.invocation = -1
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._patched: list[tuple] = []

    def call(self, name, fn, args, kwargs, keep_span=True):
        start = perf_counter()
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0.0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            total = self.totals[name]
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame[1]
            if keep_span:
                self.spans.append((span_id, parent, self.invocation, name, start, end))

    def wrap(self, name, fn, keep_span=True, after=None):
        tracer = self
        signature = inspect.signature(fn) if after else None

        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs, keep_span)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(tracer.counts, bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr, name, keep_span=True, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, keep_span, after))
        self._patched.append((owner, attr, original))

    def install(self, zk_modules) -> None:
        cli, kk, spectrum, defect, lindblad, fits, io = (
            zk_modules[m] for m in ("cli", "kk", "spectrum", "defect", "lindblad", "fits", "io")
        )
        p = self.patch
        p(cli, "read_spectrum_csv", "spectrum.read_spectrum_csv", after=_rows_parsed)
        p(cli, "format_spectrum_csv", "spectrum.format_spectrum_csv")
        for cls in (spectrum.TabulatedSpectrum, spectrum.ParametricSpectrum):
            p(cls, "rate_at", "spectrum.rate_at", keep_span=False, after=_rate_points)
        p(kk, "sweep", "kk.sweep")
        p(kk, "decay_rate", "kk.decay_rate", after=_grid_points(kk.DELTA_LIMIT))
        p(cli, "decay_rate_map", "defect.decay_rate_map", after=_map_points)
        for owner in (defect, lindblad):
            p(owner, "generalized_purcell", "defect.generalized_purcell", keep_span=False)
        p(cli, "validate_kk", "lindblad.validate_kk")
        p(lindblad, "evolve", "lindblad.evolve", after=_evolve_counts)
        p(lindblad, "check_density_matrix", "lindblad.check_density_matrix", keep_span=False)
        p(lindblad, "extract_decay_rate", "lindblad.extract_decay_rate", after=_oscillations)
        for owner in (fits, lindblad):
            p(owner, "_lm_minimize", "fits.lm_minimize", after=_lm_counts)
        for fn in ("fit_damped_sine", "fit_exponential", "fit_swap_chevron"):
            p(cli, fn, f"fits.{fn}")
        p(cli, "read_columns_csv", "io.read_columns_csv", after=_columns_read)
        p(cli, "read_sidecar_json", "io.read_sidecar_json", after=_sidecar_read)
        p(cli, "read_calibration_json", "io.read_calibration_json", after=_file_read("path"))
        p(cli, "format_table_csv", "io.format_table_csv")
        for owner in (cli, io):
            p(owner, "dump_json", "io.dump_json")
        p(cli, "atomic_write_text", "io.atomic_write_text", after=_bytes_written)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, invocation, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "invocation": invocation,
                                     "name": name, "start": start, "end": end}) + "\n")


# ---------------------------------------------------------------------------
# counters recorded at the same boundaries


def _rows_parsed(counts, args, result):
    counts["spectrum.rows_parsed"] += result.omegas.size


def _rate_points(counts, args, result):
    counts["spectrum.rate_at.points"] += int(getattr(args["omega"], "size", 1))


def _grid_points(delta_limit):
    # computed: the trapezoid grid is internal, its size is the resolution;
    # below delta_limit kk takes the golden-rule limit and builds no grid
    def count(counts, args, result):
        if args["context"].dephasing >= delta_limit:
            counts["kk.grid_points"] += args["resolution"]
    return count


def _map_points(counts, args, result):
    counts["defect.map_points"] += result.size


def _evolve_counts(counts, args, result):
    # computed from the integrator's documented step rule
    counts["lindblad.rk4_steps"] += evolve_steps(args["model"], args["t_final"], args["dt"])[0]
    counts["lindblad.samples"] += result.times.size
    error = float(result.trace_errors().max())
    counts["lindblad.max_trace_error"] = max(counts["lindblad.max_trace_error"], error)


def _oscillations(counts, args, result):
    counts["lindblad.oscillation_warnings"] += bool(result[1].warnings)


def _lm_counts(counts, args, result):
    counts["fits.lm_iterations"] += result[4]
    counts["fits.lm_converged"] += bool(result[3])


def _columns_read(counts, args, result):
    counts["io.rows_parsed"] += result[0].size
    counts["io.bytes_read"] += os.path.getsize(args["path"])


def _sidecar_read(counts, args, result):
    counts["io.bytes_read"] += os.path.getsize(Path(args["trace_path"]).with_suffix(".json"))


def _file_read(arg):
    def count(counts, args, result):
        counts["io.bytes_read"] += os.path.getsize(args[arg])
    return count


def _bytes_written(counts, args, result):
    counts["io.bytes_written"] += len(args["text"].encode("utf-8"))
