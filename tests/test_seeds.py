"""The seed tree: one module derives every random stream.

No other module of the package seeds a generator or adds to a seed, the
roles of one seed draw different numbers, and run seeds are plain ints that
neighbouring base seeds do not share. The callers' side is tested with them:
the CSBM streams in test_csbm.py, the trials in test_signed.py and the
splits in test_cli.py.
"""

import ast
import itertools
import os

import numpy as np

import heterognn
from heterognn.graphs import build_graph, random_split
from heterognn.model import M2mConfig, init_params
from heterognn.seeds import (CHECKS, DROPOUT, EDGES, FEATURES, INIT, SPLIT,
                             run_seed, stream)

PACKAGE = os.path.dirname(heterognn.__file__)
ROLES = (EDGES, FEATURES, SPLIT, INIT, DROPOUT, CHECKS)
SEED_CALLS = {"default_rng", "SeedSequence", "spawn"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def seeding_outside_the_tree(package=PACKAGE):
    """`file:line: what` for each seeding call, or `+` on a `*seed` operand,
    in the package's modules other than seeds.py."""
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "seeds.py":
            continue
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name(node.func) in SEED_CALLS:
                found.append(f"{name}:{node.lineno}: {_name(node.func)}(")
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                  and any(_name(side).endswith("seed")
                          for side in (node.left, node.right))):
                found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_seeding_policy_lives_in_the_seeds_module():
    assert seeding_outside_the_tree() == []


def test_roles_of_one_seed_are_different_streams():
    for seed in (0, 1, 2**40):
        draws = {role: stream(seed, role).random(4).tolist() for role in ROLES}
        for a, b in itertools.combinations(ROLES, 2):
            assert draws[a] != draws[b], (seed, a, b)
        assert draws[SPLIT] != np.random.default_rng(seed).random(4).tolist()


def test_streams_and_run_seeds_are_reproducible_plain_ints():
    assert stream(5, INIT).random() == stream(5, INIT).random()
    runs = [run_seed(seed, i) for seed in range(3) for i in range(50)]
    assert all(type(r) is int and 0 <= r < 2**32 for r in runs)
    assert len(set(runs)) == len(runs)  # no run is shared across base seeds


def test_split_and_initial_weights_draw_their_own_streams():
    n = 40
    g = build_graph(n, [(i, (i + 1) % n) for i in range(n)],
                    np.zeros((n, 2)), np.arange(n) % 2, 2)
    split = random_split(g, seed=0)
    perm = stream(0, SPLIT).permutation(n)
    assert np.array_equal(split.train, np.sort(perm[:len(split.train)]))
    config = M2mConfig(hidden=4, chunks=2, layers=1, seed=0)
    weights = init_params(config, 3, 2).enc_in.data
    limit = np.sqrt(6.0 / (3 + 4))
    assert np.array_equal(weights, stream(0, INIT).uniform(-limit, limit, (3, 4)))
