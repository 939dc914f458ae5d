"""The seed tree: every random stream the package draws from.

A seed names a tree of numpy `SeedSequence`s. `stream(seed, role)` is the
generator of one role under that seed, with the role as its spawn key, so
two roles never share numbers, and a role added later moves no existing
stream. `run_seed(seed, index)` is the plain-int seed of trial or split
`index` under `seed`, so neighbouring base seeds share no run. See "Parallel
Random Number Generation" in the NumPy reference.
"""

import numpy as np

__all__ = ["stream", "run_seed", "EDGES", "FEATURES", "SPLIT", "INIT",
           "DROPOUT", "CHECKS"]

# one fixed spawn key per role; never renumber one
EDGES, FEATURES, SPLIT, INIT, DROPOUT, CHECKS, RUN = range(7)


def stream(seed: int, role: int) -> np.random.Generator:
    """The generator of `role` under `seed`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(role,)))


def run_seed(seed: int, index: int) -> int:
    """The 32-bit seed of trial or split `index` under base `seed`."""
    state = np.random.SeedSequence(seed, spawn_key=(RUN, index)).generate_state(1)
    return int(state[0])
