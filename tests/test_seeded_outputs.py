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


@pytest.fixture(scope="module")
def sections(seeded, golden):
    return seeded.sections(golden)


def _hash_lines(sections):
    """The hash lines of the golden file's first section."""
    return next(iter(sections.values()))


def test_golden_file_lists_every_seeded_output_once(seeded, sections):
    # one section per OpenBLAS kernel set, each naming the same outputs
    cores = [header.rsplit(" ", 1)[1] for header in sections]
    assert cores == ["SkylakeX", "Haswell"]
    names_of = []
    for header, lines in sections.items():
        assert header.startswith("# python ") and " numpy " in header
        assert " scipy " in header and " openblas-core " in header
        names = [line.split("  ", 1)[1] for line in lines]
        assert len(names) == len(set(names)) == 41
        stdout = [n for n in names if n.startswith("stdout/")]
        assert stdout == [f"stdout/{i:02d}-{argv[0]}"
                          for i, argv in enumerate(seeded.COMMANDS)]
        assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)
        names_of.append(sorted(names))
    assert names_of[0] == names_of[1]


def test_sections_split_the_golden_text_at_each_environment_line(seeded):
    text = "# env a\n1  x\n2  y\n\n# env b\n3  x\n"
    assert seeded.sections(text) == {"# env a": ["1  x", "2  y"],
                                     "# env b": ["3  x"]}


def test_compare_passes_the_golden_lines_themselves(seeded, sections):
    for lines in sections.values():
        assert seeded.compare(lines, lines) == []


def test_compare_names_the_one_mutated_line(seeded, sections):
    lines = _hash_lines(sections)
    digest, name = lines[14].split("  ", 1)
    mutated = lines[:14] + [f"{'0' * 64}  {name}"] + lines[15:]
    problems = seeded.compare(mutated, lines)
    assert problems == [f"moved: {name} (golden {'0' * 64}, now {digest})"]


def test_compare_names_missing_and_new_outputs(seeded, sections):
    lines = _hash_lines(sections)
    problems = seeded.compare(lines, lines[1:] + [f"{'1' * 64}  extra.csv"])
    assert problems == [f"new: extra.csv ({'1' * 64})",
                        f"missing: {lines[0].split('  ', 1)[1]} "
                        f"(golden {lines[0].split('  ', 1)[0]})"]


def test_check_exits_1_on_a_moved_line_and_0_elsewhere(seeded, sections,
                                                       monkeypatch, capsys):
    lines = _hash_lines(sections)
    moved = [f"{'2' * 64}  {lines[3].split('  ', 1)[1]}"] + lines[:3] + lines[4:]
    header, other = list(sections)
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
    # each kernel set is held to its own section: the first section's
    # lines fail against the second's wherever their bits differ
    monkeypatch.setattr(seeded, "environment", lambda: other)
    capsys.readouterr()
    assert seeded.main(["--check"]) == 1
    out = capsys.readouterr().out
    differ = sorted(set(lines) - set(sections[other]))
    assert differ and all(f"moved: {row.split('  ', 1)[1]} " in out
                          for row in differ)
    monkeypatch.setattr(seeded, "seeded_lines", lambda: sections[other])
    assert seeded.main(["--check"]) == 0
