"""Numerical rank with an explicit tolerance policy.

Rank decisions drive every conclusion drawn from the Jacobians, so the policy
is never implicit.  A full-rank decision is first certified by a Cholesky
factorisation of the shifted Gram matrix; it then reports the threshold it
certified, method "cholesky" and no spectrum.  A block upper-triangular
matrix can instead be certified from its diagonal blocks
(:func:`triangular_sigma_bound`); :mod:`coxdeform.vinberg` does so for D phi
(method "block").  Every other decision comes from the dense SVD (method
"svd"), which reports the full spectrum, the threshold actually used and the
spectral gap at the cut.  A small gap marks the decision as uncertain
instead of silently picking a side.

The Jacobians are sparse with a block pattern (:class:`BlockRows`), so their
Gram matrices are assembled from that pattern and the dense matrix is built
only when the SVD must decide (:class:`StructuredMatrix`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

UNIT_ROUNDOFF = 2.0 ** -53
SMALLEST_SUBNORMAL = 2.0 ** -1074


@dataclass(frozen=True)
class RankPolicy:
    """Threshold = max(shape) * sigma_max * rel_tol; gap ratios below
    ``gap_threshold`` flag the rank as uncertain."""

    rel_tol: float = 1e-12
    gap_threshold: float = 1e3

    def threshold(self, shape, sigma_max):
        return max(shape) * sigma_max * self.rel_tol


DEFAULT_RANK_POLICY = RankPolicy()


@dataclass
class RankResult:
    """``method`` is "cholesky" or "block" for a certified full rank, whose
    ``singular_values`` are empty and whose ``threshold`` is the certified
    lower bound on sigma_min; "svd" otherwise."""

    rank: int
    singular_values: np.ndarray
    threshold: float
    gap: float
    uncertain: bool
    method: str

    def kernel_dimension(self, ncols):
        return ncols - self.rank


@dataclass(frozen=True)
class StructuredMatrix:
    """A matrix given by its ``shape`` and two functions of no arguments:
    ``gram`` returns fl(M M^t), each entry a sum of products of M's stored
    entries (see :func:`_full_rank_certificate`), and ``build`` returns M.
    The Gram matrix serves when the rows are the short side."""

    shape: tuple
    gram: Callable
    build: Callable


class BlockRows:
    """The pattern of a matrix with ``nblocks`` column blocks of equal width
    whose rows are sums of terms: term t puts the vector ``values[t]`` in
    block ``block[t]`` of row ``row[t]``, and no two terms share a block of
    a row.  The pair arrays (p, q), built on first use, list every ordered
    pair of terms in a common block, so that Gram entry (r, s) is the sum of
    <values[p], values[q]> over the pairs with p in row r and q in row s."""

    def __init__(self, nrows, nblocks, row, block):
        self.nrows, self.nblocks = nrows, nblocks
        self.row = np.asarray(row, dtype=np.int32)
        self.block = np.asarray(block, dtype=np.int32)

    @cached_property
    def block_order(self):
        """The terms sorted by block, stably."""
        return np.argsort(self.block, kind="stable")

    @cached_property
    def pairs(self):
        order = self.block_order
        size = np.bincount(self.block, minlength=self.nblocks)
        start = np.cumsum(size) - size
        npairs = size * size
        b = np.repeat(np.arange(self.nblocks), npairs)
        k = np.arange(npairs.sum()) - np.repeat(np.cumsum(npairs) - npairs, npairs)
        return (order[start[b] + k // size[b]].astype(np.int32),
                order[start[b] + k % size[b]].astype(np.int32))

    def shape(self, values):
        return (self.nrows, self.nblocks * values.shape[1])

    def dense(self, values):
        M = np.zeros((self.nrows, self.nblocks, values.shape[1]))
        M[self.row, self.block] = values
        return M.reshape(self.shape(values))

    def gram(self, values):
        """fl(M M^t): the dot product of each pair's stored vectors, summed
        per entry in pair order."""
        R = self.nrows
        p, q = self.pairs
        products = np.take(values, p, axis=0)
        products *= np.take(values, q, axis=0)
        dots = products[:, 0].copy()
        for j in range(1, products.shape[1]):
            dots += products[:, j]
        entry = self.row[p].astype(np.intp) * R + self.row[q]
        return np.bincount(entry, weights=dots, minlength=R * R).reshape(R, R)

    def gram_diagonal(self, values):
        """The diagonal of :meth:`gram`, bit for bit, without the pairs: a
        diagonal entry gets only the pairs (t, t), which come in block order,
        and each one's dot product is summed in column order."""
        order = self.block_order
        v = np.take(values, order, axis=0)
        v *= v
        dots = v[:, 0].copy()
        for j in range(1, v.shape[1]):
            dots += v[:, j]
        return np.bincount(self.row[order], weights=dots, minlength=self.nrows)

    def matrix(self, values):
        return StructuredMatrix(self.shape(values), lambda: self.gram(values),
                                lambda: self.dense(values))


def numerical_rank(M, policy=DEFAULT_RANK_POLICY):
    """Numerical rank of a matrix: certified full when
    :func:`_full_rank_certificate` holds, else from :func:`svd_rank`.

    ``M`` is a matrix or a :class:`StructuredMatrix`, whose Gram matrix
    serves when its rows are the short side.  Otherwise the matrix is built
    for the Gram matrix of its short side and dropped before the
    factorisation.  The Gram matrix is dropped before the SVD, which builds
    the matrix again, so a large matrix and the Cholesky buffers are never
    held at once."""
    if isinstance(M, StructuredMatrix) and M.shape[0] <= M.shape[1]:
        shape, build = M.shape, M.build
        if min(shape) == 0:
            return svd_rank(build(), policy)
        A = M.gram()
    else:
        build = M.build if isinstance(M, StructuredMatrix) else (lambda: M)
        X = _finite(build())
        if X.size == 0:
            return svd_rank(X, policy)
        shape = X.shape
        W = X if shape[0] <= shape[1] else X.T
        A = W @ W.T
        del X, W
    tau = _full_rank_certificate(A, shape, policy)
    del A
    if tau is not None:
        return RankResult(min(shape), np.zeros(0), tau, np.inf, False, "cholesky")
    return svd_rank(build(), policy)


def _full_rank_certificate(A, shape, policy=DEFAULT_RANK_POLICY, floor=0.0):
    """A threshold tau_bar, at least the SVD path's tau, with sigma_min(M) >
    max(tau_bar, ``floor``); None when the certificate fails.  ``A`` =
    fl(W W^T) is the Gram matrix of the short side W (k x q, k <= q) of M,
    and ``shape`` is M's.  ``A`` is overwritten.

    With u = 2^-53, gamma_j = j u / (1 - j u) and eta = 2^-1074:

    - Gram formation: |A - W W^T| <= gamma_q |W| |W|^T + q eta entrywise,
      for any summation order and with underflow, so ||A - W W^T||_2 <=
      gamma_q ||W||_F^2 + k q eta.  This needs only that each A_rs is a
      floating-point sum, in some order and grouping, of at most q products
      fl(W_rj W_sj) of W's stored entries; the other products are exactly
      zero.  So it holds as well for a Gram matrix assembled from the row
      pattern (:meth:`BlockRows.gram`: dot products of the terms' stored
      vectors, summed per entry), provided the terms are stored exactly as
      the dense matrix stores them.
    - sigma_bar and tau_bar as in :func:`_sigma_bound`.
    - Cholesky (Rump, "Verification of positive definiteness", BIT 46, 2006):
      if the floating-point Cholesky factorisation of a symmetric B runs to
      completion, then lambda_min(B) > -c, with c = gamma_{k+1} / (1 -
      gamma_{k+1}) trace(B) plus his underflow term 4k(2(k+2) + max B_ii)
      eta.  Here B = fl(A - s I), so trace(B) <= trace(A) <= sigma_bar^2.
    - Diagonal subtraction: B = A - s I + D with |D_ii| <= u (max A_ii + s).

    So if B factors, lambda_min(W W^T) > s (1 - u) - c - u max A_ii -
    gamma_q sigma_bar^2 - k q eta, and the shift, with t = max(tau_bar,
    floor),

        s = (t^2 + gamma_q sigma_bar^2 + k q eta + c + u max A_ii)
            * (1 + gamma_64)

    makes that at least t^2.  The factor 1 + gamma_64 covers the 1 / (1 -
    u) and the fewer than 30 roundings made in evaluating s; the + eta in c
    covers the rounding of its subnormal product.
    """
    k, q = min(shape), max(shape)
    diag = np.diagonal(A)
    dmax = float(diag.max())
    sigma2, tau = _sigma_bound(diag, shape, policy)
    underflow = k * q * SMALLEST_SUBNORMAL
    g = _gamma(k + 1)
    c = g / (1.0 - g) * sigma2 + (4.0 * k * (2.0 * (k + 2) + dmax) + 1.0) * SMALLEST_SUBNORMAL
    t = max(tau, floor)
    s = t * t + _gamma(q) * sigma2 + underflow + c + UNIT_ROUNDOFF * dmax
    s *= 1.0 + _gamma(64)
    if not math.isfinite(s):
        return None
    A.flat[::k + 1] -= s
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    return tau


def _sigma_bound(diag, shape, policy=DEFAULT_RANK_POLICY):
    """(sigma_bar^2, tau_bar) from the diagonal ``diag`` of A = fl(W W^T),
    W the short side (k x q) of a matrix M of ``shape``:

    - sigma_bar^2 = fl(trace A) (1 + gamma_{2(q+k)}) + k q eta >= ||W||_F^2
      >= sigma_max^2: each A_ii loses at most a factor 1 - gamma_q, the trace
      sum at most 1 - gamma_k, and 1 / ((1 - gamma_q)(1 - gamma_k)) <=
      1 + gamma_{2(q+k)}.  sigma_bar^2 also bounds the exact trace of A.
    - tau_bar = policy.threshold(shape, sigma_bar) >= the SVD path's tau.
    """
    k, q = min(shape), max(shape)
    sigma2 = float(diag.sum()) * (1.0 + _gamma(2 * (q + k))) + k * q * SMALLEST_SUBNORMAL
    return sigma2, policy.threshold(shape, math.sqrt(sigma2))


def triangular_sigma_bound(beta_a, beta_d, norm_b):
    """A lower bound on sigma_min(T) for T = [[A, B], [0, D]] with A and D
    of full row rank, sigma_min(A) >= ``beta_a``, sigma_min(D) >= ``beta_d``
    and ||B||_2 <= ``norm_b``.

    T then has full row rank, and [[A^+, -A^+ B D^+], [0, D^+]] is a right
    inverse of it, so sigma_min(T) >= 1 / ||that|| >= 1 / (1/beta_a +
    1/beta_d + norm_b / (beta_a beta_d)).  The six roundings of the
    denominator and the two of the quotient are covered by 1 + gamma_16."""
    den = 1.0 / beta_a + 1.0 / beta_d + norm_b / (beta_a * beta_d)
    return 1.0 / (den * (1.0 + _gamma(16)))


def svd_rank(M, policy=DEFAULT_RANK_POLICY):
    """Numerical rank of a matrix from its full singular spectrum."""
    M = _finite(M)
    if M.size == 0:
        return RankResult(0, np.zeros(0), 0.0, np.inf, False, "svd")
    s = np.linalg.svd(M, compute_uv=False)
    smax = s[0] if len(s) else 0.0
    tau = policy.threshold(M.shape, smax)
    rank = int(np.sum(s > tau))
    if rank == 0 or rank == len(s) or s[rank] == 0.0:
        gap = np.inf
    else:
        gap = s[rank - 1] / s[rank]
    uncertain = bool(gap < policy.gap_threshold)
    return RankResult(rank, s, tau, gap, uncertain, "svd")


def _gamma(j):
    return j * UNIT_ROUNDOFF / (1.0 - j * UNIT_ROUNDOFF)


def _finite(M):
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return M
