"""Run dsltopo benchmark workloads, each in a process of its own.

    python3 perfbench/run.py --workload wave_train --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                 # every workload in turn

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones. The exit code is
0 when the workload ran to its end, whatever its checks found.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("wave_train", "wave_eval", "dsl_large", "calibrate")
TIMEOUT_S = 170


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload's process; return its result, or raise RuntimeError."""
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} did not finish within {TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with code {proc.returncode}")
    record = json.loads(out.strip().splitlines()[-1])
    if not trace:
        setup_s = record["setup_end_monotonic"] - started
        record["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **record["metrics"]}
    with open(os.path.join(HERE, "out", f"{workload}-trace{trace}.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    return record


def result_line(record: dict) -> dict:
    return {
        "correct": record["problem_count"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    all_correct = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            record = run_workload(workload, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for problem in record["problems"]:
            print(f"{workload}: check failed: {problem}")
        if record.get("untraced"):
            print(f"{workload}: untraced layers: {', '.join(record['untraced'])}")
        line = result_line(record)
        all_correct = all_correct and line["correct"]
        print(json.dumps(line))
    # one workload's run exits 0 once it has ended: `correct` carries the verdict
    return 0 if args.workload or all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
