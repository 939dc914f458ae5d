"""Hash the outputs of a fixed list of seeded CLI runs.

Runs the seeded command list below in a fresh temporary directory, using the
package under this checkout's ``src/``, and prints one ``<sha256>  <path>``
line per output file and one per command's stdout. The ``# generated``
timestamp line is stripped from CSVs before hashing, so two runs of the same
code print the same lines:

    python scripts/seeded_outputs.py > after.txt

With ``--check`` it compares the lines with the golden file committed next
to this script, ``seeded_outputs.golden``, names each line that moved and
exits 1 if any did. The bits of the seeded runs depend on the numpy and
scipy builds and on the OpenBLAS kernel set the CPU selects (the same
checkout prints other hashes for ``ck.bin`` and the attention CSVs with
``OPENBLAS_CORETYPE=Haswell`` on an AVX-512 machine). So the golden file
holds one section per environment: a first line recording all of them,
then that environment's hash lines, each exact. ``--check`` compares with
the section whose first line is the running environment's; when none is,
it says it skipped the comparison and exits 0. A change that moves seeded
output on purpose replaces each section in the same commit: the first line,
as ``--check`` prints it, followed by the plain output, run once per kernel
set, for instance under ``OPENBLAS_CORETYPE=Haswell`` for the Haswell
section.

Before the commands run, ``write_bag_of_words`` writes a small dataset of
binary word rows (about 2% nonzero) from a fixed numpy stream, so one seeded
``train`` run multiplies its features as a CSR matrix.

Exits 1 if any command fails.
"""

import argparse
import ctypes
import glob
import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
GOLDEN = os.path.join(HERE, "seeded_outputs.golden")

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
    ["train", "--data", "bow", "--row-normalize", "--chunks", "2",
     "--hidden", "32", "--max-epochs", "12", "--splits", "2", "--seed", "1",
     "--save-checkpoint", "ck_bow", "--out", "train_bow.csv"],
]


def write_bag_of_words(path, n=150, f=900, classes=4, seed=9):
    """A Texas-like dataset at path: n nodes of f binary words, at least one
    per node and about 2% nonzero, under class-dependent word rates, and
    about 2n random edges, all drawn from one seeded numpy stream."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, n)
    rates = 0.04 * rng.random((classes, f))
    words = rng.random((n, f)) < rates[labels]
    words[np.arange(n), rng.integers(0, f, n)] = True
    pairs = np.sort(rng.integers(0, n, (2 * n, 2)), axis=1)
    edges = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)
    os.makedirs(path)
    np.savetxt(os.path.join(path, "edges.tsv"), edges, fmt="%d", delimiter="\t")
    np.savetxt(os.path.join(path, "features.tsv"), words, fmt="%d",
               delimiter="\t")
    np.savetxt(os.path.join(path, "labels.tsv"), labels, fmt="%d")


def digest(data: bytes, csv: bool) -> str:
    if csv and data.startswith(b"# generated"):
        data = data.split(b"\n", 1)[1]
    return hashlib.sha256(data).hexdigest()


def blas_core() -> str:
    """The OpenBLAS kernel set numpy's bundled library runs, or "unknown"."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_",
                     "scipy_openblas_get_corename", "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.argtypes = []
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def environment() -> str:
    """The golden file's first line: what the seeded bits depend on."""
    return (f"# python {sys.version_info.major}.{sys.version_info.minor} "
            f"numpy {np.__version__} scipy {scipy.__version__} "
            f"openblas-core {blas_core()}")


def seeded_lines():
    """Run the command list; return the hash lines, or None if one fails."""
    env = dict(os.environ, PYTHONPATH=SRC)
    lines = []
    with tempfile.TemporaryDirectory() as work:
        write_bag_of_words(os.path.join(work, "bow"))
        for n, argv in enumerate(COMMANDS):
            done = subprocess.run(
                [sys.executable, "-m", "heterognn.cli", *argv], cwd=work,
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            if done.returncode != 0:
                sys.stderr.write(done.stderr.decode(errors="replace"))
                print(f"command {n} ({' '.join(argv)}) exited "
                      f"{done.returncode}", file=sys.stderr)
                return None
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
    return lines


def sections(golden_text: str):
    """{environment line: hash lines} of each section of the golden text."""
    found, rows = {}, None
    for row in golden_text.splitlines():
        if row.startswith("# "):
            rows = found.setdefault(row, [])
        elif row:
            rows.append(row)
    return found


def compare(golden_lines, lines):
    """One message per output whose hash differs from the golden lines',
    or that only one side has; empty when the two agree line for line."""
    def by_name(rows):
        return dict(reversed(row.split("  ", 1)) for row in rows)

    want = by_name(golden_lines)
    got = by_name(lines)
    problems = []
    for name in sorted(want.keys() | got.keys()):
        if name not in got:
            problems.append(f"missing: {name} (golden {want[name]})")
        elif name not in want:
            problems.append(f"new: {name} ({got[name]})")
        elif want[name] != got[name]:
            problems.append(f"moved: {name} (golden {want[name]}, "
                            f"now {got[name]})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed golden file")
    args = parser.parse_args(argv)
    lines = seeded_lines()
    if lines is None:
        return 1
    if not args.check:
        print("\n".join(lines))
        return 0
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = sections(fh.read())
    running = environment()
    if running not in golden:
        made = "', '".join(recorded[2:] for recorded in golden)
        print(f"skipped the comparison: {os.path.basename(GOLDEN)} was made "
              f"with '{made}', this is '{running[2:]}'")
        return 0
    problems = compare(golden[running], lines)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} seeded output(s) differ from "
              f"{os.path.basename(GOLDEN)}; section's first line: {running}")
        return 1
    print(f"all {len(lines)} seeded outputs match the '{running[2:]}' section "
          f"of {os.path.basename(GOLDEN)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
