#!/usr/bin/env python3
"""Benchmark the working tree against a git revision, in alternating pairs.

For each workload and seed it runs the benchmark command of
``BENCHMARK.json`` (``perfbench/run.py``) once in each of two trees: a
``git archive`` of the parent revision extracted into a temporary
directory, and the working tree.  The tree that runs first alternates
from one seed to the next.  Each run's last stdout line is its JSON
result.  Run from the repository root:

    python3 tools/bench.py --parent HEAD --workload zeno-map \\
        --seeds 101-110 --out BENCH_37.json

Each run lasts ``BENCHMARK.json``'s ``run_seconds``.  The output holds
every run (its metrics, exit code and failed/attempted counts), per
workload each side's failed invocations and nonzero exits, a summary per
end-to-end metric (the medians and quartiles of both sides, and the
pairs the change won, "better" as ``BENCHMARK.json`` declares it) and
the package's ``environment_fingerprint()``.  The tool reads ``BENCHMARK.json`` and
runs ``perfbench/run.py``; it changes neither.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    """``"3"``, ``"1-5"`` or ``"1,4,9"`` (ranges allowed in the list)."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end run in ``tree``: exit code, counts and metrics."""
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    return {
        "exit_code": proc.returncode,
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()},
    }


def failures(runs: list[dict]) -> dict:
    """Each side's failed invocations and runs that exited nonzero."""
    return {side: {"failed": sum(r[side]["failed"] or 0 for r in runs),
                   "nonzero_exits": sum(r[side]["exit_code"] != 0 for r in runs)}
            for side in ("parent", "change")}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: medians and quartiles of each side, and pairs won.

    ``runs`` holds one ``{"seed", "parent", "change"}`` entry per pair;
    a pair counts for a metric only when both of its runs report it.  A
    gain does not count (``gain_exceeds_parent_iqr`` is false) when the
    change failed more invocations, or exited nonzero more often, than
    the parent.
    """
    failed = failures(runs)
    fails_more = any(failed["change"][k] > failed["parent"][k] for k in failed["parent"])
    summary = {}
    for name, direction in better.items():
        pairs = [(r["parent"]["metrics"][name], r["change"]["metrics"][name])
                 for r in runs if name in r["parent"]["metrics"] and name in r["change"]["metrics"]]
        if not pairs:
            continue
        sides = {}
        for side, values in zip(("parent", "change"), zip(*pairs)):
            q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                              if len(values) > 1 else (values[0],) * 3)
            sides[side] = {"median": median, "q1": q1, "q3": q3}
        sign = 1.0 if direction == "higher" else -1.0
        gain = sign * (sides["change"]["median"] - sides["parent"]["median"])
        summary[name] = {
            "better": direction,
            **sides,
            "pairs": len(pairs),
            "pairs_won": sum(sign * (change - parent) > 0 for parent, change in pairs),
            "median_gain": gain / abs(sides["parent"]["median"]) if sides["parent"]["median"] else None,
            "gain_exceeds_parent_iqr": (not fails_more
                                        and gain > sides["parent"]["q3"] - sides["parent"]["q1"]),
        }
    return summary


def bench(parent: Path, change: Path, benchmark: dict, workloads: list[str],
          seeds: list[int], seconds: float, log=print) -> dict:
    """Alternating pairs in the two trees; the pair of seed ``seeds[i]``
    runs the parent first when ``i`` is even."""
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(parent if side == "parent" else change,
                                      benchmark["command"], workload, seed, seconds)
                log(f"{workload} seed={seed} {side}: exit {pair[side]['exit_code']} "
                    f"{json.dumps(pair[side]['metrics'])}")
            runs.append(pair)
        report["workloads"][workload] = {"runs": runs, "failures": failures(runs),
                                         "summary": summarize(runs, better)}
    return report


def extract_revision(revision: str, into: Path) -> None:
    """The committed files of ``revision``, as ``git archive`` gives them."""
    archive = subprocess.run(["git", "archive", "--format=tar", revision],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    from zenokit.io import environment_fingerprint

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        extract_revision(args.parent, Path(tmp))
        report = bench(Path(tmp), ROOT, benchmark, args.workload, args.seeds,
                       benchmark["run_seconds"])
    revision = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    report = {"parent": revision, **report, "environment": environment_fingerprint()}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, result in report["workloads"].items():
        print(f"{workload:<18} failed/nonzero exits: " + ", ".join(
            f"{side} {f['failed']}/{f['nonzero_exits']}" for side, f in result["failures"].items()))
        for name, s in result["summary"].items():
            print(f"{workload:<18} {name:<22} parent {s['parent']['median']:.6g} "
                  f"change {s['change']['median']:.6g} won {s['pairs_won']}/{s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
