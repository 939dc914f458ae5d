"""Run one workload over several seeds and report each metric's spread.

Usage, from the root of a source checkout:

    python3 bench/repeat.py --workload train-large --seeds 1-10 --seconds 30

Runs ``bench/run.py`` once per seed, one run at a time, and prints for every
metric the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the interquartile spread as a share of the median. A metric whose unit is
``count`` that does not repeat exactly is flagged. The summary is also
written to ``.bench_out/repeat-<workload>-trace<t>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(lines[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0, "values": values}
        flag = ""
        if first["unit"] == "count" and len(set(values)) > 1:
            flag = "  NOT EXACT"
        print(f"{name:40s} median {med:12.6g} {first['unit']:6s} "
              f"spread {summary[name]['spread']:7.2%}{flag}")
    out = ROOT / ".bench_out" / f"repeat-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                               "correct": all(r["correct"] for r in runs),
                               "metrics": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
