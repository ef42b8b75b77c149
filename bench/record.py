"""Measure every workload on several seeds and append the figures to
``bench/baseline.json``::

    python3 bench/record.py --label "what this commit is" [--seeds 10]

Each workload runs ``--seeds`` times untraced (seeds 1..N) and once traced.
For every end-to-end metric the entry keeps the median, the quartiles and
the spread (interquartile range over median) of the runs, next to the bound
``BENCHMARK.json`` allows; for every per-layer metric it keeps the traced
value.  Runs are sequential, so they do not compete for the machine.
"""
import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
BASELINE = HERE / "baseline.json"


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=600, check=True,
    )
    detail, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    return detail, result


def cpu_model() -> str:
    """CPU model from /proc/cpuinfo (Linux), else what ``platform`` knows."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)  # med is the median
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    entry = {"label": args.label, "date": time.strftime("%Y-%m-%d"),
             "run_seconds": spec["run_seconds"], "seeds": args.seeds,
             "workloads": {}}
    for wl in spec["workloads"]:
        name = wl["name"]
        runs, attempted, failed = {}, 0, 0
        for seed in range(1, args.seeds + 1):
            detail, result = bench(name, seed, spec["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, v in result["metrics"].items():
                runs.setdefault(metric, []).append(v["value"])
            print(name, seed, json.dumps(result), flush=True)
        _, traced = bench(name, 1, spec["run_seconds"], 1)
        entry["environment"] = dict(detail["environment"], cpu=cpu_model())
        entry["workloads"][name] = {
            "why": wl["why"],
            "failed_frac": failed / attempted,
            "end_to_end": {m: dict(summary(v), bound=bounds[m])
                           for m, v in runs.items()},
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
    history = json.loads(BASELINE.read_text()) if BASELINE.exists() else []
    history.append(entry)
    BASELINE.write_text(json.dumps(history, indent=1) + "\n")
    for name, figures in entry["workloads"].items():
        for metric, s in figures["end_to_end"].items():
            print(f"{name:24s} {metric:14s} median {s['median']:.4g} "
                  f"spread {s['spread']:.3f} bound {s['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
