"""The committed golden file of seeded output hashes and its comparison."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "seeded_outputs.py"


@pytest.fixture(scope="module")
def seeded():
    spec = importlib.util.spec_from_file_location("seeded_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden(seeded):
    return Path(seeded.GOLDEN).read_text(encoding="utf-8")


def _hash_lines(golden):
    return golden.splitlines()[1:]


def test_golden_file_lists_every_seeded_output_once(seeded, golden):
    header, *lines = golden.splitlines()
    assert header.startswith("# python ") and " numpy " in header
    assert " scipy " in header and " openblas-core " in header
    names = [line.split("  ", 1)[1] for line in lines]
    assert len(names) == len(set(names)) == 33
    stdout = [n for n in names if n.startswith("stdout/")]
    assert stdout == [f"stdout/{i:02d}-{argv[0]}"
                      for i, argv in enumerate(seeded.COMMANDS)]
    assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)


def test_compare_passes_the_golden_lines_themselves(seeded, golden):
    assert seeded.compare(golden, _hash_lines(golden)) == []


def test_compare_names_the_one_mutated_line(seeded, golden):
    lines = _hash_lines(golden)
    digest, name = lines[14].split("  ", 1)
    mutated = golden.replace(lines[14], f"{'0' * 64}  {name}")
    problems = seeded.compare(mutated, lines)
    assert problems == [f"moved: {name} (golden {'0' * 64}, now {digest})"]


def test_compare_names_missing_and_new_outputs(seeded, golden):
    lines = _hash_lines(golden)
    problems = seeded.compare(golden, lines[1:] + [f"{'1' * 64}  extra.csv"])
    assert problems == [f"new: extra.csv ({'1' * 64})",
                        f"missing: {lines[0].split('  ', 1)[1]} "
                        f"(golden {lines[0].split('  ', 1)[0]})"]


def test_check_exits_1_on_a_moved_line_and_0_elsewhere(seeded, golden,
                                                       monkeypatch, capsys):
    lines = _hash_lines(golden)
    moved = [f"{'2' * 64}  {lines[3].split('  ', 1)[1]}"] + lines[:3] + lines[4:]
    header = golden.splitlines()[0]
    monkeypatch.setattr(seeded, "seeded_lines", lambda: moved)
    monkeypatch.setattr(seeded, "environment", lambda: header)
    assert seeded.main(["--check"]) == 1
    assert f"moved: {lines[3].split('  ', 1)[1]}" in capsys.readouterr().out
    # other numpy, scipy or BLAS kernels: the comparison is skipped
    monkeypatch.setattr(seeded, "environment", lambda: header + "-other")
    assert seeded.main(["--check"]) == 0
    assert "skipped the comparison" in capsys.readouterr().out
    monkeypatch.setattr(seeded, "seeded_lines", lambda: lines)
    monkeypatch.setattr(seeded, "environment", lambda: header)
    assert seeded.main(["--check"]) == 0
