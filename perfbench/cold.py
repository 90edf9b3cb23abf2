"""Cold CLI calls: a fresh interpreter imports ``zenokit.cli`` and runs
workload invocations (a JSON list; each invocation is a list of argument
lists run in turn).

After the first invocation it prints one JSON line with the
machine-speed probe sampled meanwhile (see ``speed.py``), so the caller
can time the cold start up to there.  Then it runs the rest and prints
every invocation's exit code and the process's peak resident memory.
"""
import json
import resource
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.speed import SpeedSampler  # noqa: E402


def run(argvs) -> int:
    from zenokit.cli import main

    code = 0
    for argv in argvs:
        code = main(argv)
        if code:
            break
    return code


if __name__ == "__main__":
    invocations = json.loads(sys.argv[1])
    with SpeedSampler() as sampler:
        exits = [run(invocations[0])]
    print(json.dumps({
        "probe_s": statistics.median(sampler.durations) if sampler.durations else None,
        "sampled_s": sampler.spent,
    }), flush=True)
    exits += [run(argvs) for argvs in invocations[1:]]
    print(json.dumps({
        "exits": exits,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    sys.exit(next((code for code in exits if code), 0))
