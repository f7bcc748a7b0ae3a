#!/usr/bin/env python3
"""perfbench: the ictm benchmark.

Runs one workload and prints, as the last line of stdout, one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload geant-replay --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a checkout.  The first run builds the library, the
`ictm` CLI and the perfbench driver from source (perfbench/CMakeLists.txt)
into .bench_build/perfbench-<checkout hash>/; inputs are generated once
per (dataset, seed) into .bench_work/inputs/ and reused.  Generation and
building are never timed.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir(root: str) -> str:
    """Build tree of the checkout at `root`.  It is keyed by the
    checkout, so checkouts sharing an absolute CARGO_TARGET_DIR never
    build (or run) each other's sources."""
    key = hashlib.sha1(os.path.realpath(root).encode()).hexdigest()[:12]
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"),
                        f"perfbench-{key}")


BUILD = build_dir(ROOT)
WORK = ".bench_work"  # relative, so the server's socket path stays short
DRIVER = os.path.join(BUILD, "perfbench")
ICTM = os.path.join(BUILD, "ictm")

# Inputs: name -> (generator arguments after OUT and SEED).
DATASETS = {
    # Géant-like D1 stand-in: 2 weeks of 5-minute bins on 22 PoPs.
    "geant22-w2": ["gen-geant", "{out}", "{seed}", "2"],
    # IC-synthesized, sigma=1.7 lognormal preferences, 200 nodes; 9 bins
    # are one window of 8 and one bin on the refitted prior.
    "hier200-b9": ["gen-hier", "{out}", "{seed}", "9", "200"],
}


def workload_args(name: str, seconds: float, trace: bool) -> list[str]:
    """Driver arguments of one workload (see README.md for why).

    --ladder FIRST,STEP,RUNGS,CLIMBS,START is the fixed rate ladder of
    sustained_bins_per_s (bins/s per session; climbs start at START x the
    run's saturated rate); each rung runs for --ladder-seconds."""
    if name == "geant-replay":
        return ["stream", "--dataset", "geant22-w2", "--topology", "geant22",
                "--window", "96", "--threads", "4", "--setups", "25",
                "--job-share", "0.35", "--min-pairs", "1",
                "--rates", "500,1000,2000", "--paced-bins", "750,1500,3000",
                "--rounds", "2",
                "--latency-limit-ms", "50",
                "--ladder", "2000,1.1,40,3,1.5", "--ladder-seconds", "0.6",
                "--solve-samples", "65", "--trace-reps", "3"]
    if name == "hier200-refit":
        return ["stream", "--dataset", "hier200-b9", "--topology",
                "hierarchy:200", "--window", "8", "--threads", "4",
                "--setups", "2", "--job-share", "0", "--min-pairs", "3",
                "--rates", "1,1.5,2", "--paced-bins", "2,3,4", "--rounds", "2",
                "--latency-limit-ms", "5000",
                "--ladder", "0.5,1.1,40,1,0.9", "--ladder-seconds", "3",
                "--solve-samples", "4", "--trace-reps", "1"]
    if name == "serve-paced":
        phase = max(1.0, seconds / 9)
        return ["serve", "--dataset", "geant22-w2", "--topology", "geant22",
                "--window", "96", "--threads", "1", "--sessions", "2",
                "--setups", "40", "--setup-bins", "16",
                "--saturation-bins", "3000", "--saturation-reps", "4",
                "--rates", "200,400,800", "--rounds", "3",
                "--phase-seconds", f"{phase:g}", "--latency-limit-ms", "50",
                "--ladder", "500,1.1,40,5,0.8", "--ladder-seconds", "0.5",
                "--solve-samples", "65", "--trace-reps", "2"]
    raise SystemExit(f"perfbench: unknown workload {name!r}")


def log(*parts: object) -> None:
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build() -> None:
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr)


def dataset(name: str, seed: int) -> str:
    """Path of the cached input, generated on first use."""
    path = os.path.join(WORK, "inputs", f"{name}-s{seed}.ictmb")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        log(f"generating {path}")
        args = [a.format(out=path, seed=seed) for a in DATASETS[name]]
        subprocess.run([DRIVER, *args], check=True, timeout=150)
    return path


def run_driver(args: list[str], timeout: float) -> dict:
    """Runs the driver in its own process group, so a timeout also stops
    any server it launched."""
    proc = subprocess.Popen([DRIVER, *args], stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit("perfbench: driver timed out")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: driver failed ({proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if opts.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {opts.workload!r}")
    build()

    args = workload_args(opts.workload, opts.seconds, bool(opts.trace))
    i = args.index("--dataset")
    trace_in = dataset(args[i + 1], opts.seed)
    work = os.path.join(WORK, opts.workload)
    os.makedirs(work, exist_ok=True)
    trace_out = os.path.join(work, f"trace-s{opts.seed}.json")
    args = args[:i] + args[i + 2:] + [
        "--trace-in", trace_in, "--work", work, "--ictm", ICTM,
        "--seconds", f"{opts.seconds:g}", "--traced", str(opts.trace),
        "--trace-out", trace_out]
    raw = run_driver(args, timeout=170)
    raw["failed"] = min(raw["failed"], raw["attempted"])

    if opts.trace:
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "check_trace.py"),
             trace_out, "--min-events", "10"],
            stdout=sys.stderr)
        if check.returncode != 0:
            raw["failed"] = raw["attempted"]  # the whole traced run is void
    correct = raw["failed"] == 0
    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in raw]
    if missing:
        raise SystemExit(f"perfbench: driver did not report {missing}")
    for key in sorted(raw):
        log(f"{key} = {raw[key]:.6g}")
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
