"""iealign benchmark: one command, four fixed-seed workloads.

    python3 perfbench/run.py --workload sft_5k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from a checkout of the repository; the program is imported from its
``src/``. Each workload sets up its inputs several times (``setup_s`` is the
median), then repeats the timed run for about ``--seconds`` (at least twice)
and reports the median. Times are reported at a reference CPU speed (see
``timed``); clock times are printed beside them. Every repetition's outputs
are checked; the command exits 1 when a check fails and 2 when it cannot run
at all.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics, including the tracing overhead. Both modes print
human-readable lines first and end with one JSON line. Inputs, outputs,
``result.json`` and, when traced, ``spans.tsv`` go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import ROOT_SPAN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-out"

# Set-up repeats at least SETUPS times and until SETUP_SECONDS have passed, so
# that the median of short set-ups rests on more than three samples.
SETUPS = 3
SETUP_SECONDS = 2.0
MIN_REPS = 2

# The reference loop's time at the reference speed. It is about what the loop
# takes on the 2-vCPU machine the baseline was measured on, so that times at
# reference speed read close to clock times there.
REFERENCE_S = 0.022


def reference_loop() -> float:
    """Time a fixed piece of pure-Python arithmetic. It runs no program code,
    so only the speed the machine gives this process right now moves it."""
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - started


def timed(fn, *args):
    """Call ``fn(*args)``; return its result, its clock time, and its time at
    reference speed.

    The reference loop runs just before and just after the call; its mean time
    gives the machine's speed during the call. The time the process spent on
    the CPU is scaled by that speed, the rest (sleeping, waiting) is kept as
    measured. On a shared host the same code can run a third faster or slower
    for minutes at a time; this takes most of that drift out of the metrics."""
    before = reference_loop()
    t0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    speed = REFERENCE_S / ((before + reference_loop()) / 2)
    return result, wall, wall - min(cpu, wall) * (1.0 - speed)


def time_left(started: float, seconds: float, step: float) -> bool:
    """Whether another repetition fits: start one only while at least half of
    it ends inside the window, so a run measures ``seconds`` on average
    instead of overshooting by a whole repetition."""
    return time.perf_counter() - started + step / 2 < seconds


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_program() -> str | None:
    """Import iealign from the checkout's ``src/``; return an error or None."""
    src = ROOT / "src"
    if not (src / "iealign" / "__init__.py").is_file():
        return f"no iealign sources under {src}"
    sys.path.insert(0, str(src))
    import iealign

    if Path(iealign.__file__).resolve().parent != (src / "iealign").resolve():
        return f"iealign was imported from {iealign.__file__}, not from {src}"
    return None


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run repetitions for ``seconds``, check each, and summarize."""
    from workloads import tree_digest

    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    inp, out = work / "input", work / "output"
    problems: list[str] = []

    setup_s: list[float] = []  # at reference speed
    setup_clock_s: list[float] = []
    input_digests = set()
    min_setups, min_setup_seconds = (1, 0.0) if trace else (SETUPS, SETUP_SECONDS)
    while len(setup_s) < min_setups or sum(setup_clock_s) < min_setup_seconds:
        shutil.rmtree(inp, ignore_errors=True)
        inp.mkdir(parents=True)
        gc.collect()
        _, clock, at_reference = timed(workload.setup, seed, inp)
        setup_s.append(at_reference)
        setup_clock_s.append(clock)
        input_digests.add(tree_digest(inp))
    if len(input_digests) != 1:
        problems.append("set-up made different inputs from the same seed")
    workload.prepare(inp)
    setup_peak_rss_mb = peak_rss_mb()
    # What the benchmark keeps (expected values, gold texts) should not add
    # to the program's garbage-collection work.
    gc.collect()
    gc.freeze()

    reps: list[dict] = []
    last_tracer = None
    started, step = time.perf_counter(), 0.0
    while len(reps) < MIN_REPS or time_left(started, seconds, step):
        step = time.perf_counter()
        traced = trace and len(reps) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install(workload.traced_methods)
        try:
            result, clock, wall = timed(tracer.wrap(ROOT_SPAN, workload.run) if tracer else workload.run, inp, out)
        finally:
            if tracer is not None:
                tracer.uninstall()
        outcome = workload.check(inp, out, result)
        del result
        problems += [f"repetition {len(reps)}: {p}" for p in outcome.problems]
        rep = {"wall_s": wall, "clock_s": clock, "traced": traced, "items": outcome.items, "failed": outcome.failed,
               "digests": outcome.digests}
        if tracer is not None:
            layer = {"client.generations": 0, "client.retries": 0,
                     "prefpairs.kept_ratio": 0.0, "prefpairs.candidates_per_instance": 0.0}
            layer.update(tracer.summary())
            layer.update(outcome.layer)
            layer["client.cache_hits"] = layer["client.complete.calls"] - layer["client.generations"]
            rep["layer"] = layer
            last_tracer = tracer
        reps.append(rep)
        step = time.perf_counter() - step

    if len({json.dumps(r["digests"], sort_keys=True) for r in reps}) != 1:
        problems.append("output digests differ between repetitions")

    untraced = [r["wall_s"] for r in reps if not r["traced"]]
    wall_s = statistics.median(untraced)
    clock_s = [r["clock_s"] for r in reps if not r["traced"]]
    q1, q3 = quartiles(untraced)
    attempted = sum(r["items"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    summary = {
        "workload": workload.name,
        "seed": seed,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "digests": reps[0]["digests"],
        "setup_s_samples": setup_s,
        "setup_clock_s_samples": setup_clock_s,
        "setup_peak_rss_mb": setup_peak_rss_mb,
        "wall_s_samples": untraced,
        "clock_s_samples": clock_s,
        "end_to_end": {
            "wall_s": wall_s,
            "wall_s.q1": q1,
            "wall_s.q3": q3,
            "wall_s.n": len(untraced),
            "items_per_s": reps[0]["items"] / wall_s,
            "setup_s": statistics.median(setup_s),
            "clock_s": statistics.median(clock_s),
            "setup_clock_s": statistics.median(setup_clock_s),
            "peak_rss_mb": peak_rss_mb(),
            "failed_ratio": failed / attempted,
            "completed_ratio": 1.0 - failed / attempted,
        },
    }
    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        names = sorted({k for r in traced_reps for k in r["layer"]})
        layer = {k: statistics.median(r["layer"].get(k, 0) for r in traced_reps) for k in names}
        traced_wall = statistics.median(r["wall_s"] for r in traced_reps)
        layer["trace.traced_wall_s"] = traced_wall
        layer["trace.overhead_s"] = traced_wall - wall_s
        summary["per_layer"] = layer
        last_tracer.write(work / "spans.tsv")
    (work / "result.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return summary


def report(summary: dict, declared: list[dict]) -> dict:
    """Print the human-readable lines and return the result line's metrics."""
    e2e = summary["end_to_end"]
    print(f"workload {summary['workload']}  seed {summary['seed']}  "
          f"set-ups {len(summary['setup_s_samples'])}  untraced repetitions {e2e['wall_s.n']}")
    print(f"  wall_s        {e2e['wall_s']:.4f} s   (q1 {e2e['wall_s.q1']:.4f}, q3 {e2e['wall_s.q3']:.4f}, n={e2e['wall_s.n']})")
    print(f"  items_per_s   {e2e['items_per_s']:.1f} 1/s")
    print(f"  clock_s       {e2e['clock_s']:.4f} s   (median clock time; set-up {e2e['setup_clock_s']:.4f} s)")
    setups = summary["setup_s_samples"]
    q1, q3 = quartiles(setups)
    print(f"  setup_s       {e2e['setup_s']:.4f} s   (q1 {q1:.4f}, q3 {q3:.4f}, n={len(setups)})")
    print(f"  peak_rss_mb   {e2e['peak_rss_mb']:.1f} MB   (after set-up {summary['setup_peak_rss_mb']:.1f} MB)")
    print(f"  failed_ratio  {e2e['failed_ratio']:.6f}   ({summary['failed']} of {summary['attempted']} items)")
    for name, digest in sorted(summary["digests"].items()):
        print(f"  digest {name} {digest}")
    layer = summary.get("per_layer")
    if layer is not None:
        for name in sorted(layer):
            print(f"  {name} {layer[name]:.6g}")
    for problem in summary["problems"]:
        print(f"  CHECK FAILED: {problem}")
    values = layer if layer is not None else e2e
    metrics = {}
    for metric in declared:
        if metric["name"] not in values:
            raise KeyError(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return metrics


def run_all(args) -> int:
    """Run every workload, one process after another, and combine the result lines."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="how long to repeat the timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config_path = ROOT / "BENCHMARK.json"
    if not config_path.is_file():
        return fail(f"{config_path} not found")
    error = import_program()
    if error:
        return fail(error)
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")

    config = json.loads(config_path.read_text(encoding="utf-8"))
    declared = config["per_layer"] if args.trace else config["end_to_end"]
    summary = measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    metrics = report(summary, declared)
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
