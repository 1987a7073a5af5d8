#!/usr/bin/env python3
"""End-to-end benchmark of pmpr: temporal event file -> every window's PageRank.

Run from the repository root:

    python3 perfbench/run.py --workload postmortem-4t --seed 3 --seconds 38 --trace 0
    python3 perfbench/run.py --self-test

Each invocation
  1. builds perfbench/ (which compiles the library from src/) into
     .bench_build/perfbench,
  2. writes the seed's inputs into .bench_data/ with perfbench_gen, a
     process of its own, once per generator seed and scale,
  3. runs measured rounds for about --seconds seconds, cycling through the
     seed's inputs. A round is one perfbench_round process: one batch job
     with one client, timed from load_text to the last window in the sink,
     with every window checked (perfbench/check.hpp). Before each round,
     perfbench_round --setup-only processes sample the set-up time alone.

--trace 0 reports the median set-up time (over every sample), run time and
peak RSS (over the rounds). --trace 1 spends half the time on untraced
rounds of the first input, then runs one traced round (library counter and
histogram gates on, the benchmark's own spans, kernel probes) and reports
the per-layer metrics. Every metric name and unit is checked against
BENCHMARK.json. The last stdout line is the result JSON; the line before it
records the seed, the inputs' counts and every sample. Workload choice,
run plan and predictions: perfbench/RATIONALE.md.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Wall seconds of one full round (set-up, run, check) and of one
# set-up-only sample on the benchmark VM. They fix the plan of a run, so
# every run of a workload takes the same samples whatever the host's pace.
WORKLOADS = {
    "postmortem-4t": (2.9, 0.45),
    "oocore-1t": (8.5, 0.6),
    "streaming-1t": (5.8, 0.4),
}
# Event-count multiplier of the wiki-talk surrogate (1 = 400 000 events).
SCALE = 1.0
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DATA_DIR = ROOT / ".bench_data"
# Inputs drawn from one --seed. The work of an input varies with its draw
# (edges traversed by up to 2x across seeds at scale 1), so a run cycles its
# rounds through several draws and reports the median over all of them.
INPUTS_PER_SEED = 4
# Inputs (8 MiB each at scale 1) of at most this many recent seeds stay
# cached in DATA_DIR; older ones are deleted.
CACHED_SEEDS = 8
# Set-up-only samples fill the time the full rounds leave, at most this
# many before each round.
MAX_SETUPS_PER_ROUND = 8
# A run must end within 180 s of its build: no round starts after
# LAST_START_S, and a round still running at DEADLINE_S is killed.
LAST_START_S = 110.0
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def check_call(cmd, timeout, env=None):
    """Runs cmd with its output on stderr; raises BenchError on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{cmd[0]}: {e}") from e
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited {proc.returncode}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError("library sources (src/) not found next to perfbench/")
    # The compiler's scratch files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        check_call(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"], timeout=300, env=env)
    check_call(["cmake", "--build", str(BUILD_DIR), "-j", "4"], timeout=840,
               env=env)


def run_json(cmd, timeout):
    """Runs cmd and returns its last stdout line parsed as JSON."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{cmd[0]}: {e}") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(map(str, cmd))} exited {proc.returncode}")
    return json.loads(lines[-1])


def ensure_inputs(seed):
    """Writes the seed's inputs once per (seed, SCALE) and drops the least
    recently used beyond CACHED_SEEDS seeds; returns the paths and the
    generator's counts."""
    DATA_DIR.mkdir(exist_ok=True)
    paths, infos = [], []
    for i in range(INPUTS_PER_SEED):
        gen_seed = seed * INPUTS_PER_SEED + i
        path = DATA_DIR / f"wiki-talk-scale{SCALE:g}-gen{gen_seed}.txt"
        meta = path.with_suffix(".json")
        if path.exists() and meta.exists():
            path.touch()
        else:
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            info = run_json([str(BUILD_DIR / "perfbench_gen"),
                             "--seed", str(gen_seed), "--scale", repr(SCALE),
                             "--out", str(tmp)], timeout=120)
            os.replace(tmp, path)
            meta.write_text(json.dumps(info) + "\n")
        paths.append(path)
        infos.append(json.loads(meta.read_text()))
    others = sorted(set(DATA_DIR.glob("wiki-talk-*.txt")) - set(paths),
                    key=lambda f: f.stat().st_mtime, reverse=True)
    for old in others[(CACHED_SEEDS - 1) * INPUTS_PER_SEED:]:
        old.unlink()
        old.with_suffix(".json").unlink(missing_ok=True)
    return paths, infos


def run_round(workload, input_path, start, spill_dir, setup_only=False,
              trace=False, trace_out=None, run_id=0):
    """One perfbench_round process. The out-of-core store it writes into
    spill_dir is removed even when the process was killed."""
    cmd = [str(BUILD_DIR / "perfbench_round"), "--workload", workload,
           "--input", str(input_path), "--spill-dir", str(spill_dir),
           "--run-id", str(run_id)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", "--trace-out", str(trace_out)]
    timeout = max(1.0, start + DEADLINE_S - time.monotonic())
    try:
        return run_json(cmd, timeout=timeout)
    finally:
        for left in spill_dir.glob("store-*.pmprcc"):
            left.unlink()


def plan(workload, n_inputs, seconds, setup_samples):
    """(full cycles over the inputs, set-up-only samples per round) for a
    run of `seconds`: as many cycles as fit at the workload's nominal pace,
    at least one, so every input counts the same, and as many set-up
    samples as fill the rest."""
    round_s, setup_s = WORKLOADS[workload]
    cycles = max(1, int(seconds / (n_inputs * round_s)))
    rounds = cycles * n_inputs
    if not setup_samples:
        return cycles, 0
    spare = seconds - rounds * round_s
    return cycles, min(MAX_SETUPS_PER_ROUND,
                       max(0, int(spare / (rounds * setup_s))))


def measure(workload, inputs, seconds, start, spill_dir, setup_samples=True):
    """Full rounds cycling through `inputs`, each after set-up-only samples
    of the same input, as plan() fixes. Once `seconds` have passed, only
    rounds still run. There is no warm-up round: the medians ignore a slow
    first process. Returns the rounds and every set-up time, the rounds'
    own included."""
    cycles, per_round = plan(workload, len(inputs), seconds, setup_samples)
    t_begin = time.monotonic()
    rounds, setups = [], []
    for i in range(cycles * len(inputs)):
        path = inputs[i % len(inputs)]
        for _ in range(per_round):
            if time.monotonic() - t_begin > seconds:
                break
            setups.append(run_round(workload, path, start, spill_dir,
                                    setup_only=True)["setup_s"])
        if time.monotonic() - start > LAST_START_S:
            break
        rounds.append(run_round(workload, path, start, spill_dir,
                                run_id=i + 1))
    return rounds, setups + [r["setup_s"] for r in rounds]


def declared_metrics(key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build, then prove the output check catches bad ranks")
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # round in flight before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    spill_dir = DATA_DIR / f"spill-{os.getpid()}"
    try:
        build()
        start = time.monotonic()
        measured_s = 0.0
        if args.self_test:
            check_call([str(BUILD_DIR / "perfbench_selftest")], timeout=170)
            return 0
        inputs, infos = ensure_inputs(args.seed)
        spill_dir.mkdir(exist_ok=True)
        traced = None
        if args.trace:
            # The overhead baseline: untraced rounds on the traced input.
            rounds, setups = measure(args.workload, inputs[:1],
                                     args.seconds / 2, start, spill_dir,
                                     setup_samples=False)
            DATA_DIR.joinpath("traces").mkdir(exist_ok=True)
            traced = run_round(
                args.workload, inputs[0], start, spill_dir, trace=True,
                run_id=0, trace_out=DATA_DIR / "traces" /
                f"{args.workload}-seed{args.seed}.json")
        else:
            t0 = time.monotonic()
            rounds, setups = measure(args.workload, inputs, args.seconds,
                                     start, spill_dir)
            measured_s = time.monotonic() - t0
        want = declared_metrics("per_layer" if args.trace else "end_to_end")
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)

    checked = rounds + ([traced] if traced else [])
    attempted = sum(r["windows"] for r in checked)
    failed = sum(r["check"]["failed"] for r in checked)
    run_s = statistics.median(r["run_s"] for r in rounds)
    if args.trace:
        metrics = dict(traced["layers"])
        metrics["obs.trace_overhead_frac"] = metric(
            traced["run_s"] / run_s - 1.0, "ratio")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "run_s": metric(run_s, "s"),
            "peak_rss_mb": metric(
                statistics.median(r["peak_rss_mb"] for r in rounds), "MiB"),
        }
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        log(f"error: metrics {sorted(got.items())} differ from "
            f"BENCHMARK.json {sorted(want.items())}")
        return 1

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "scale": SCALE,
        "inputs": infos, "windows": rounds[0]["windows"],
        "measured_s": measured_s, "rounds": len(rounds),
        "fail_frac": failed / attempted,
        "setup_s": setups,
        "run_s": [r["run_s"] for r in rounds],
        # CPU seconds next to run_s show host steal; iterations show how
        # much work each input draw took.
        "run_cpu_s": [r["run_cpu_s"] for r in rounds],
        "iterations": [r["iterations"] for r in rounds],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "max_mass_error": max(r["check"]["max_mass_error"] for r in checked),
        "max_oracle_l1": max(r["check"]["max_oracle_l1"] for r in checked),
        "oracle_l1_bound": checked[0]["check"]["oracle_l1_bound"],
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
