"""Run every workload once untraced and once traced, and print each
workload's metrics, with their units, in one row.

    python3 perfbench/report.py --seed 1 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    names = [w["name"] for w in bench["workloads"]]
    status = 0
    for name in names:
        cells = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                cells.append(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if trace == 0:
                cells.append(f"correct={result['correct']} attempted={result['attempted']} "
                             f"failed={result['failed']}")
            cells += [f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
        print(f"{name:12s} " + "  ".join(cells), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
