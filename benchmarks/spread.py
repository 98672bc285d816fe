"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmarks/spread.py --workloads predict-2048 --seeds 1-10

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and prints, per metric, the median and the distance between the first and
third quartile as a share of the median (``statistics.quantiles(n=4)``),
next to the metric's bound from BENCHMARK.json. A spread at or above a
third of the bound is flagged. Raw results go to ``benchmarks/out/``.
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


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--tag", default="spread", help="name of the summary file in out/")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            flag = "" if share < bounds[name] / 3 else "  <-- at or above bound/3"
            summary[workload][name] = {"median": med, "iqr_share": share, "values": vals}
            print(f"{workload:14s} {name:15s} median {med:<12.6g} spread {share:7.4f} "
                  f"bound {bounds[name]}{flag}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.tag}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
