"""Contextual stochastic block model with signed edges.

Nodes are split into C equal-size classes (labels assigned in contiguous
blocks). Each same-class pair is connected independently with probability p
and carries weight +1; each cross-class pair with probability q and weight
-1. Features are Gaussian around per-class means. By construction every
sample's adjacency is desirable: positive entries only within classes,
negative only across.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = ["CsbmParams", "SignedGraphSample", "label_signed_sample", "sample_csbm",
           "signed_normalize", "expected_operator", "mean_abs_degree"]


@dataclass(frozen=True)
class CsbmParams:
    n_nodes: int
    n_classes: int
    p: float
    q: float
    class_means: np.ndarray  # C x f
    noise_var: float = 1.0
    seed: int = 0

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.class_means, dtype=np.float64))
        if means.shape[0] != self.n_classes:
            # allow passing a flat length-C vector for 1-D features
            if means.shape == (1, self.n_classes):
                means = means.T
            else:
                raise ValueError(
                    f"class_means must have {self.n_classes} rows, got {means.shape}"
                )
        object.__setattr__(self, "class_means", means)
        if self.n_nodes % self.n_classes != 0:
            raise ValueError("n_nodes must be a multiple of n_classes")
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ValueError("edge probabilities must lie in [0, 1]")
        if self.noise_var < 0.0:
            raise ValueError("noise_var must be nonnegative")

    @property
    def n_features(self) -> int:
        return self.class_means.shape[1]

    @property
    def block_size(self) -> int:
        return self.n_nodes // self.n_classes


@dataclass
class SignedGraphSample:
    adjacency: sp.csr_matrix  # entries in {-1, 0, +1}, symmetric, zero diagonal
    features: np.ndarray  # N x f
    labels: np.ndarray  # N
    abs_degree: np.ndarray  # N, row sums of |adjacency|


def label_signed_sample(edges, features, labels) -> SignedGraphSample:
    """Symmetric signed adjacency of (E, 2) undirected edges, each listed once.

    Edges within a class weigh +1, edges across classes -1.
    """
    n = labels.shape[0]
    ii, jj = edges[:, 0], edges[:, 1]
    signs = np.where(labels[ii] == labels[jj], 1.0, -1.0)
    rows = np.concatenate([ii, jj])
    cols = np.concatenate([jj, ii])
    vals = np.concatenate([signs, signs])
    adjacency = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    abs_degree = np.asarray(abs(adjacency).sum(axis=1)).ravel()
    return SignedGraphSample(adjacency, features, labels, abs_degree)


def sample_csbm(params: CsbmParams) -> SignedGraphSample:
    """Draw one signed graph + feature sample; deterministic per params.seed."""
    rng = np.random.default_rng(params.seed)
    n, c = params.n_nodes, params.n_classes
    labels = np.repeat(np.arange(c), params.block_size)

    same = labels[:, None] == labels[None, :]
    thresh = np.where(same, params.p, params.q)
    coins = rng.random((n, n))
    upper = np.triu(coins < thresh, k=1)
    edges = np.argwhere(upper)

    noise = rng.standard_normal((n, params.n_features))
    features = params.class_means[labels] + np.sqrt(params.noise_var) * noise
    return label_signed_sample(edges, features, labels)


def signed_normalize(sample: SignedGraphSample):
    """Symmetric degree normalization of the signed adjacency.

    Returns (P, kept) where P = D^{-1/2} A D^{-1/2} over the nodes with
    absolute degree >= 1 and kept is the array of surviving node ids.
    Isolated nodes carry no propagation signal and are removed with a
    warning. The spectral norm of P is at most 1.
    """
    isolated = sample.abs_degree == 0
    kept = np.nonzero(~isolated)[0]
    adj = sample.adjacency
    if isolated.any():
        warnings.warn(
            f"dropping {int(isolated.sum())} isolated node(s) before normalization"
        )
        adj = adj[kept][:, kept]
    deg = np.asarray(abs(adj).sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    scale = sp.diags(inv_sqrt)
    P = (scale @ adj @ scale).tocsr()
    return P, kept


def mean_abs_degree(params: CsbmParams) -> float:
    """Expected |degree| under the proof convention d-bar = (N/C)(p+(C-1)q)."""
    return params.block_size * (params.p + (params.n_classes - 1) * params.q)


def expected_operator(params: CsbmParams) -> np.ndarray:
    """Class-block description of the expected normalized operator.

    Returns the C x C matrix B with B[a, a] = p / d-bar and B[a, b] = -q / d-bar
    for a != b; the expected operator is B expanded over the class blocks.
    Multiplying B by the per-class block size recovers the coefficients of the
    expected-mean recursion.
    """
    dbar = mean_abs_degree(params)
    if dbar == 0:
        raise ValueError("p + (C-1)q must be positive")
    c = params.n_classes
    block = np.full((c, c), -params.q / dbar)
    np.fill_diagonal(block, params.p / dbar)
    return block
