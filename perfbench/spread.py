"""Run the benchmark over several seeds and summarize each end-to-end metric.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/spread.py --workloads score_mixed --seeds 1-5

Each (seed, workload) pair is one ``run.py`` process, seed by seed and the
workloads in turn, so every workload's samples span the whole measurement. For
each metric the summary holds the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and ``spread``, their
distance as a share of the median. ``clock_s`` and ``setup_clock_s`` are the
clock times beside ``wall_s`` and ``setup_s``, which are at reference speed.
With ``--trace-seed`` one traced run per workload adds its per-layer
metrics. Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` process; its metrics, plus the clock times of an
    untraced run read from its ``result.json``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks")
    metrics = result["metrics"]
    if not trace:
        detail = json.loads((ROOT / ".perfbench-out" / workload / "result.json").read_text(encoding="utf-8"))
        for name in ("clock_s", "setup_clock_s"):
            metrics[name] = {"value": detail["end_to_end"][name], "unit": "s"}
    return metrics


def summarize(samples: list[dict]) -> dict:
    summary = {}
    for name in samples[0]:
        values = [s[name]["value"] for s in samples]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        median = statistics.median(values)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values),
                         "spread": (q3 - q1) / median if median else 0.0, "unit": samples[0][name]["unit"]}
    return summary


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace-seed", type=int, default=None, help="also make one traced run per workload")
    parser.add_argument("--out", type=Path, default=None, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    samples: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            metrics = run_once(workload, seed, args.seconds, 0)
            samples[workload].append(metrics)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in sorted(metrics.items())), flush=True)

    result = {"seeds": seeds, "run_seconds": args.seconds,
              "end_to_end": {w: summarize(samples[w]) for w in workloads}}
    for workload, summary in result["end_to_end"].items():
        print(f"{workload}: " + ", ".join(
            f"{k} median {v['median']:.4g} spread {v['spread']:.3f}" for k, v in sorted(summary.items())))
    if args.trace_seed is not None:
        result["per_layer_seed"] = args.trace_seed
        result["per_layer"] = {w: {k: v["value"] for k, v in run_once(w, args.trace_seed, args.seconds, 1).items()}
                               for w in workloads}
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
