"""Run the benchmark over ten seeds and write the seed baseline.

    python3 perfbench/summarize.py

Runs every workload in BENCHMARK.json on seeds 1-10, each run
``run.py`` in its own process, one after another. For every end-to-end
metric it prints the median, the quartiles and the spread (interquartile
distance over the median) next to a third of the bound, and marks a
spread at or above that as WIDE. It adds one traced run (seed 1) per
workload and writes all of it to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import src_line_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))
TRACED_SEED = 1


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}{done.stdout}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary: dict = {
        "run_seconds": SPEC["run_seconds"],
        "seeds": SEEDS,
        "src_tablex_lines": src_line_count(),
        "workloads": {},
    }
    for workload in (w["name"] for w in SPEC["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in SEEDS:
            result = run_once(workload, seed, 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        entry = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            entry[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": series}
            ok = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"{workload:13s} {name:12s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:.4f}  bound/3 {bounds[name] / 3:.4f}  {ok}", flush=True)
            print("    values " + " ".join(f"{v:.4f}" for v in series), flush=True)
        traced = run_once(workload, TRACED_SEED, 1)
        entry["per_layer_seed"] = TRACED_SEED
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    (HERE / "baseline.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
