"""Hash the outputs of a fixed list of seeded CLI runs.

Runs the seeded command list below in a fresh temporary directory, using the
package under this checkout's ``src/``, and prints one ``<sha256>  <path>``
line per output file and one per command's stdout. The ``# generated``
timestamp line is stripped from CSVs before hashing, so two runs of the same
code print the same lines. To check that a change keeps the seeded output
byte-identical, run this script in both checkouts and diff the two outputs:

    python scripts/seeded_outputs.py > after.txt

Exits 1 if any command fails.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MODEL = ["--data", "ds", "--chunks", "3", "--hidden", "48"]
COMMANDS = [
    ["gen-csbm", "--out", "ds", "-N", "240", "-C", "3", "--p", "0.03",
     "--q", "0.05", "--seed", "4"],
    ["simulate", "-N", "900", "--trials", "3", "-K", "6", "--seed", "2",
     "--out", "simulate.csv"],
    ["concentration", "-N", "900", "--trials", "3", "-K", "4", "--seed", "5",
     "--out", "concentration.csv"],
    ["desirability", "ds", "--layers", "2"],
    ["desirability", "ds", "--layers", "3", "--show", "3"],
    ["desirability", "--demo"],
    ["train", *MODEL, "--max-epochs", "12", "--splits", "2", "--seed", "1",
     "--save-checkpoint", "ck", "--out", "train.csv"],
    ["sweep-depth", *MODEL, "--max-epochs", "6", "--k-list", "2,8",
     "--splits", "2", "--seed", "3", "--out", "sweep.csv"],
    ["ablate", "--data", "ds", "--chunks-list", "1,3", "--hidden", "48",
     "--lambda-list", "0,0.5", "--k-list", "2,4", "--max-epochs", "5",
     "--seed", "2", "--out", "ablate.csv"],
    ["analyze-attention", *MODEL, "--max-epochs", "10", "--seed", "6",
     "--out", "attention.csv"],
    ["analyze-attention", *MODEL, "--max-epochs", "10", "--seed", "6",
     "--checkpoint", "ck", "--out", "attention_ck.csv"],
]


def digest(data: bytes, csv: bool) -> str:
    if csv and data.startswith(b"# generated"):
        data = data.split(b"\n", 1)[1]
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONPATH=SRC)
    lines = []
    with tempfile.TemporaryDirectory() as work:
        for n, argv in enumerate(COMMANDS):
            done = subprocess.run(
                [sys.executable, "-m", "heterognn.cli", *argv], cwd=work,
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            if done.returncode != 0:
                sys.stderr.write(done.stderr.decode(errors="replace"))
                print(f"command {n} ({' '.join(argv)}) exited "
                      f"{done.returncode}", file=sys.stderr)
                return 1
            lines.append(f"{digest(done.stdout, False)}  "
                         f"stdout/{n:02d}-{argv[0]}")
        for root, dirs, files in os.walk(work):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                rel = os.path.relpath(path, work)
                lines.append(f"{digest(data, name.endswith('.csv'))}  {rel}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
