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
only when the SVD must decide (:class:`StructuredMatrix`).  The Cholesky
factorisation takes the rows of a pattern that share no block with each
other as its first pivots: their block of the Gram matrix is diagonal, so
those steps have a closed form, and only the trailing block, the Schur
complement, is formed and handed to LAPACK (:class:`BorderedGram`).  This is
the same floating-point Cholesky of the same shifted matrix in another
pivot order, so the certificate is unchanged (:func:`_full_rank_certificate`).
The Gauss-Newton step of :mod:`coxdeform.lorentz` solves through the same
elimination of D psi's Gram matrix at the shift -mu that its certificate
factors at +s (:meth:`BorderedGram.solve`).
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
    entries (see :func:`_full_rank_certificate`), as a dense array or as a
    :class:`BorderedGram`, and ``build`` returns M.  The Gram matrix serves
    when the rows are the short side."""

    shape: tuple
    gram: Callable
    build: Callable


@dataclass(frozen=True)
class BorderedGram:
    """A Gram matrix A = fl(W W^t) in the form that
    :func:`_full_rank_certificate` factors: its ``diagonal``, and
    ``eliminate(s, out=None)``, the Cholesky factorisation of fl(A - s I)
    through its closed-form pivots, as (pivots, multipliers, trailing
    block), which raises LinAlgError, as LAPACK does, at a pivot that is not
    positive.  A dense A has no such pivots (:meth:`dense`).  The Gram
    matrix of a pattern (:meth:`BlockRows.gram`) carries its
    ``elimination``, which :meth:`solve` reads."""

    diagonal: np.ndarray
    eliminate: Callable
    elimination: _Elimination = None

    @classmethod
    def dense(cls, A):
        """fl(A - s I) itself, formed in A, which is overwritten."""
        def eliminate(s):
            A.flat[::len(A) + 1] -= s
            return None, None, A
        return cls(np.diagonal(A).copy(), eliminate)

    def trailing(self, s):
        """The trailing block of the factorisation of fl(A - s I)."""
        return self.eliminate(s)[2]

    def solve(self, s, r, out=None):
        """y with fl(A - s I) y = r, A a pattern's Gram matrix, by the same
        factorisation: z = r_p / l through the pivots l; the trailing block,
        formed in ``out`` when given (m x m, zero off the pattern's
        entries), solved for y_t from r_t - C z, C the multipliers; and
        y_p = (z - C^t y_t) / l."""
        E = self.elimination
        pivot, coupling, block = self.eliminate(s, out)
        z = r[E.pivot_rows] / pivot
        t = r[E.trail_rows] - np.bincount(E.couple_row, coupling * z[E.couple_pivot],
                                          minlength=E.size)
        y = np.empty(len(r))
        y[E.trail_rows] = t = np.linalg.solve(block, t)
        y[E.pivot_rows] = (z - np.bincount(E.couple_pivot, coupling * t[E.couple_row],
                                           minlength=len(z))) / pivot
        return y


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
        return _pairs_within(self.block, self.nblocks, self.block_order)

    @cached_property
    def pivots(self):
        """The pivot rows of :meth:`gram`, as a mask: rows whose terms share
        no block with each other, chosen greedily in row order.  A row is
        taken when none of its blocks is a block of a row taken before."""
        blocks = [[] for _ in range(self.nrows)]
        for r, b in zip(self.row.tolist(), self.block.tolist()):
            blocks[r].append(b)
        used = bytearray(self.nblocks)
        mask = np.zeros(self.nrows, dtype=bool)
        for r, bs in enumerate(blocks):
            if not any(used[b] for b in bs):
                mask[r] = True
                for b in bs:
                    used[b] = 1
        return mask

    @cached_property
    def elimination(self):
        """The index arrays of :meth:`gram`, built on first use, with the
        rows split into the pivots and m trailing rows:

        - ``dot_pairs``: the pairs whose dot products :meth:`gram` forms, in
          pair order within each of three runs: the ``ndiag`` pairs (t, t),
          which give the diagonal (in the order of :meth:`gram_diagonal`);
          the ``ncouple`` pairs with p in a trailing row and q in a pivot
          row; and the pairs of terms of two trailing rows;
        - ``couple``: the coupling each of the second run belongs to, one
          per (trailing row, pivot row) that share a block, and
          ``couple_row`` and ``couple_pivot``, each coupling's positions
          among the trailing rows (``trail_rows``) and the pivots;
        - ``update`` (a, b): every ordered pair of couplings with a common
          pivot, grouped by pivot in pivot order;
        - ``entry``: the flat entry of the m x m trailing block of each pair
          of the third run, then of each diagonal entry, then of each
          update."""
        pivot = self.pivots
        k, m = self.nrows, int(np.count_nonzero(~pivot))
        trail_pos = np.cumsum(~pivot) - 1
        pivot_pos = np.cumsum(pivot) - 1
        p, q = self.pairs
        rp, rq = self.row[p], self.row[q]
        cross = ~pivot[rp] & pivot[rq]
        both = ~pivot[rp] & ~pivot[rq]
        keys, couple = np.unique(trail_pos[rp[cross]].astype(np.int64) * k + pivot_pos[rq[cross]],
                                 return_inverse=True)
        couple_row, couple_pivot = keys // k, keys % k
        a, b = _pairs_within(couple_pivot, int(pivot.sum()),
                             np.argsort(couple_pivot, kind="stable"))
        order = self.block_order
        return _Elimination(
            pivot_rows=np.flatnonzero(pivot), trail_rows=np.flatnonzero(~pivot),
            dot_pairs=(np.concatenate([order, p[cross], p[both]]),
                       np.concatenate([order, q[cross], q[both]])),
            ndiag=len(order), ncouple=int(cross.sum()), diag_rows=self.row[order],
            couple=couple, couple_row=couple_row, couple_pivot=couple_pivot, update=(a, b),
            entry=np.concatenate([trail_pos[rp[both]] * m + trail_pos[rq[both]],
                                  np.arange(m) * (m + 1), couple_row[a] * m + couple_row[b]]),
            size=m)

    def shape(self, values):
        return (self.nrows, self.nblocks * values.shape[1])

    def dense(self, values):
        M = np.zeros((self.nrows, self.nblocks, values.shape[1]))
        M[self.row, self.block] = values
        return M.reshape(self.shape(values))

    def gram(self, values):
        """fl(M M^t) as a :class:`BorderedGram`: Gram entry (r, s) is the
        dot product of each pair's stored vectors, summed per entry in pair
        order, and only the diagonal, the entries of the trailing rows and
        those that couple a trailing row to a pivot are formed.

        The pivot rows share no block, so their Gram entries with each other
        are exact zeros, and the Cholesky factorisation of fl(A - s I) that
        takes them first is: pivot l_i = sqrt(fl(A_ii - s)); one multiplier
        fl(A_ri / l_i) per trailing row r that shares a block with pivot i;
        and the trailing entry fl(A_rs - s [r = s]) minus the products of
        the multipliers of r and s, pivot by pivot in pivot order.  All of
        them go into one accumulation, in that order, so each Gram entry is
        summed first, then shifted, then eliminated: one ``np.bincount`` or,
        into ``out``, one ``np.add.at``, which sums in the same order."""
        E = self.elimination
        m, ndots = E.size, len(E.dot_pairs[0])
        a, b = E.update
        weights = np.empty(ndots + m + len(a))
        _pair_dots(values, *E.dot_pairs, out=weights[:ndots])
        diag = np.bincount(E.diag_rows, weights[:E.ndiag], minlength=self.nrows)
        head = E.ndiag + E.ncouple

        def eliminate(s, out=None):
            pivot = diag[E.pivot_rows] - s
            if not (pivot > 0.0).all():
                raise np.linalg.LinAlgError("a closed-form pivot is not positive")
            pivot = np.sqrt(pivot)
            coupling = np.bincount(E.couple, weights[E.ndiag:head],
                                   minlength=len(E.couple_pivot)) / pivot[E.couple_pivot]
            weights[ndots:ndots + m] = -s
            np.multiply(np.negative(coupling.take(a)), coupling.take(b), out=weights[ndots + m:])
            if out is None:
                return pivot, coupling, np.bincount(E.entry, weights[head:],
                                                    minlength=m * m).reshape(m, m)
            flat = out.reshape(-1)
            flat[E.entry] = 0.0
            np.add.at(flat, E.entry, weights[head:])
            return pivot, coupling, out
        return BorderedGram(diag, eliminate, E)

    def transpose_product(self, values, y):
        """M^t y: block c sums y[row[t]] values[t] over its terms t."""
        weighted = values * y.take(self.row)[:, None]
        return np.array([np.bincount(self.block, w, minlength=self.nblocks)
                         for w in weighted.T]).T.reshape(-1)

    def gram_diagonal(self, values):
        """The diagonal of the Gram matrix, bit for bit, without the pairs:
        a diagonal entry gets only the pairs (t, t), which come in block
        order, and each one's dot product is summed in column order."""
        order = self.block_order
        return np.bincount(self.row[order], weights=_pair_dots(values, order, order),
                           minlength=self.nrows)

    def matrix(self, values):
        return StructuredMatrix(self.shape(values), lambda: self.gram(values),
                                lambda: self.dense(values))


@dataclass(frozen=True)
class _Elimination:
    pivot_rows: np.ndarray
    trail_rows: np.ndarray
    dot_pairs: tuple
    ndiag: int
    ncouple: int
    diag_rows: np.ndarray
    couple: np.ndarray
    couple_row: np.ndarray
    couple_pivot: np.ndarray
    update: tuple
    entry: np.ndarray
    size: int


def _pairs_within(group, ngroups, order):
    """Every ordered pair (p, q) of items in a common group, as two index
    arrays grouped by group, p-major within a group; ``order`` sorts the
    items by group, stably."""
    size = np.bincount(group, minlength=ngroups)
    start = np.cumsum(size) - size
    npairs = size * size
    g = np.repeat(np.arange(ngroups), npairs)
    k = np.arange(npairs.sum()) - np.repeat(np.cumsum(npairs) - npairs, npairs)
    return (order[start[g] + k // size[g]].astype(np.int32),
            order[start[g] + k % size[g]].astype(np.int32))


def _pair_dots(values, p, q, out=None):
    """fl(<values[p], values[q]>) for each pair, summed in column order,
    into ``out`` when given."""
    columns = values.T.copy()
    out = np.multiply(columns[0].take(p), columns[0].take(q), out=out)
    for column in columns[1:]:
        out += column.take(p) * column.take(q)
    return out


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
    fl(W W^T) is the Gram matrix of the short side W (k x q, k <= q) of M, as
    a :class:`BorderedGram` or a dense array (which is overwritten), and
    ``shape`` is M's.

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
    - Pivot order.  Rump's argument rests on the backward error of the
      factorisation, L L^T = B + E with |E| <= gamma_{k+1} |L| |L^T|
      (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed.,
      Lemma 8.4 and Theorem 10.3), which holds for any order of evaluation
      of each l_ij = (b_ij - sum_t l_it l_jt) / l_jj.  So it holds for the
      factorisation of P B P^T, any row permutation P, whose lambda_min is
      B's.  A :class:`BorderedGram` takes first the rows that share no
      block with each other: their entries of A, and so of B, are exact
      zeros, so each of their l_ij is an exact zero, each pivot is l_ii =
      sqrt(B_ii), each multiplier of a later row r is fl(B_ri / l_ii), and
      each entry of the trailing block is fl(B_rs - sum_i l_ri l_si), the
      products subtracted one by one.  LAPACK then factors that block,
      which completes the floating-point Cholesky factorisation of P B P^T
      in one order of evaluation.  A pivot that is not positive stops it,
      as it would stop LAPACK; with no such rows this is LAPACK's
      factorisation of B.

    So if B factors, lambda_min(W W^T) > s (1 - u) - c - u max A_ii -
    gamma_q sigma_bar^2 - k q eta, and the shift, with t = max(tau_bar,
    floor),

        s = (t^2 + gamma_q sigma_bar^2 + k q eta + c + u max A_ii)
            * (1 + gamma_64)

    makes that at least t^2.  The factor 1 + gamma_64 covers the 1 / (1 -
    u) and the fewer than 30 roundings made in evaluating s; the + eta in c
    covers the rounding of its subnormal product.
    """
    if not isinstance(A, BorderedGram):
        A = BorderedGram.dense(A)
    k, q = min(shape), max(shape)
    diag = A.diagonal
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
    try:
        np.linalg.cholesky(A.trailing(s))
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
