#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at tiny scale.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs perfbench/run.py on every workload at --scale tiny (2,000 base sets
per input) for seed 7 and the held-out seed 8, untraced and traced, and
fails unless:
  - every end-to-end and per-layer metric named in BENCHMARK.json is in
    the result with its unit, and error_rate is printed with its unit;
  - every run is correct with no failed job, and the traced report shows
    operator self-times plus the unattributed rest adding up to join_s;
  - a run whose jobs each drop one emitted pair counts every job as
    failed, so a wrong pair list shows in error_rate.
Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = (7, 8)


def run(workload, seed, trace, drop_pair=0):
    cmd = [sys.executable, str(REPO / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--scale", "tiny",
           "--drop-pair", str(drop_pair)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO,
                          timeout=900)
    if proc.returncode != 0:
        sys.exit(f"selftest: {' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def main():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    errors = []

    def expect(condition, message):
        if not condition:
            errors.append(message)

    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                where = f"{workload} seed {seed} trace {trace}"
                lines, result = run(workload, seed, trace)
                expect(result["correct"] and result["failed"] == 0 and
                       result["attempted"] >= 1, f"{where}: {result}")
                for metric in spec[section]:
                    got = result["metrics"].get(metric["name"])
                    expect(got is not None and
                           got["unit"] == metric["unit"] and
                           isinstance(got["value"], (int, float)),
                           f"{where}: metric {metric['name']} missing or "
                           f"without unit {metric['unit']}: {got}")
                if trace == 0:
                    expect(any(line.split()[:1] == ["error_rate"] and
                               line.split()[-1] == "ratio"
                               for line in lines),
                           f"{where}: error_rate not printed")
                else:
                    expect(any("operator self-times" in line
                               for line in lines),
                           f"{where}: self-time accounting not printed")

    lines, result = run("address-tuned", SEEDS[0], 0, drop_pair=1)
    expect(not result["correct"] and result["attempted"] >= 1 and
           result["failed"] == result["attempted"],
           f"dropped pair not counted as failed: {result}")
    expect(any(line.split()[:2] == ["error_rate", "1"] for line in lines),
           "dropped pair not shown in error_rate")

    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
