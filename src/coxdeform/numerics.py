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
those steps have a closed form.  The trailing block, the Schur complement,
is sparse too, and is reduced the same way level by level: each level takes
rows with no structural nonzero between them in the block the levels before
leave, chosen greedily by fewest nonzeros, as in Liu's multiple minimum
degree ordering.  A level is taken while its cost model expects it to save
LAPACK more time than it costs (:func:`_takes_level`), and only the block
left is formed densely and handed to LAPACK (:class:`BorderedGram`).  The
pattern of every level is worked out once per pattern and cached; a level
of a pattern that is not factored again and again must repay that analysis
in one use.  This is the same floating-point Cholesky of the same shifted
matrix in another pivot order, so the certificate is unchanged
(:func:`_full_rank_certificate`).  Each pattern forms the block left to
LAPACK in one m x m work array of its own (:attr:`BlockRows.work`), so a
block is valid until the pattern's next elimination.
The Gauss-Newton step of :mod:`coxdeform.lorentz` solves through the same
elimination of D psi's Gram matrix at the shift -mu that its certificate
factors at +s (:meth:`BorderedGram.solve`).
A Gram matrix whose rows are a few dense rows after many that share no
column, as the gauge directions of :mod:`coxdeform.vinberg` are, is given
in arrow form (:meth:`BorderedGram.arrow`): the diagonal of the many, their
coupling to the few, and the few's own dense block, which is all LAPACK
factors after the one level of closed-form pivots.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

UNIT_ROUNDOFF = 2.0 ** -53
SMALLEST_SUBNORMAL = 2.0 ** -1074
GAP_THRESHOLD = 1e3  # an SVD cut whose gap ratio is below this is uncertain


class RankPolicy(NamedTuple):
    """Threshold = max(shape) * sigma_max * rel_tol."""

    rel_tol: float = 1e-12

    def threshold(self, shape, sigma_max):
        return max(shape) * sigma_max * self.rel_tol


DEFAULT_RANK_POLICY = RankPolicy()


class RankResult(NamedTuple):
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


class StructuredMatrix(NamedTuple):
    """A matrix given by its ``shape`` and two functions of no arguments:
    ``gram`` returns fl(M M^t), each entry a sum of products of M's stored
    entries (see :func:`_full_rank_certificate`), as a dense array or as a
    :class:`BorderedGram`, and ``build`` returns M.  The Gram matrix serves
    when the rows are the short side."""

    shape: tuple
    gram: Callable
    build: Callable


class BorderedGram(NamedTuple):
    """A Gram matrix A = fl(W W^t) in the form that
    :func:`_full_rank_certificate` factors: its ``diagonal``, and
    ``eliminate(s)``, the Cholesky factorisation of fl(A - s I) through its
    ``levels`` of closed-form pivots, as (factors, trailing block): one
    (pivots, multipliers) per level, and the m x m block left.  It raises
    LinAlgError, as LAPACK does, at a pivot that is not positive.  A dense
    A has no levels (:meth:`dense`); the Gram matrix of a pattern has those
    of :attr:`BlockRows.elimination` and forms its block in the pattern's
    :attr:`BlockRows.work`; an arrow form has one level, which it
    eliminates itself (:meth:`arrow`).  The block is valid until the next
    elimination of the same dense matrix or pattern."""

    diagonal: np.ndarray
    eliminate: Callable
    levels: tuple = ()

    @classmethod
    def dense(cls, A):
        """fl(A - s I) itself, formed in A, which is overwritten; A's
        diagonal is kept, so A can be eliminated again."""
        diagonal = np.diagonal(A).copy()

        def eliminate(s):
            np.subtract(diagonal, s, out=A.reshape(-1)[::len(A) + 1])
            return [], A
        return cls(diagonal, eliminate)

    @classmethod
    def arrow(cls, pivots, coupling, border):
        """The Gram matrix [[diag(``pivots``), C^t], [C, E]] of k rows that
        share no column with each other followed by g rows, C (g x k) the
        ``coupling`` and E (g x g) the ``border``: the k rows are one level
        of closed-form pivots l = sqrt(fl(pivots - s)), with multipliers L =
        fl(C / l), and the g x g block left is fl(fl(E - s I) - fl(L L^t)),
        the sums of products accumulated by BLAS.  It is not solved: it has
        no ``levels``."""

        def eliminate(s):
            pivot = pivots - s
            if not (pivot > 0.0).all():
                raise np.linalg.LinAlgError("a closed-form pivot is not positive")
            pivot = np.sqrt(pivot)
            multipliers = coupling / pivot
            block = border.copy()
            block.reshape(-1)[::len(block) + 1] -= s
            block -= multipliers @ multipliers.T
            return [(pivot, multipliers)], block
        return cls(np.concatenate([pivots, np.diagonal(border)]), eliminate)

    def trailing(self, s):
        """The trailing block of the factorisation of fl(A - s I)."""
        return self.eliminate(s)[1]

    def solve(self, s, r):
        """y with fl(A - s I) y = r by the same factorisation, level by
        level: z = r_p / l through the level's pivots l, then the rest of
        the system with right-hand side r_t - C z, C the level's
        multipliers; the trailing block is solved by LAPACK; and back
        through the levels, y_p = (z - C^t y_t) / l.

        fl(A - s I) must be positive definite.  On an indefinite matrix a
        level's pivot may not be positive, and the solve raises LinAlgError
        as :attr:`eliminate` does; a dense form, with no levels, solves any
        nonsingular fl(A - s I) by LAPACK."""
        factors, block = self.eliminate(s)
        zs = []
        for L, (pivot, coupling) in zip(self.levels, factors):
            z = r[L.pivot_rows] / pivot
            r = r[L.trail_rows] - np.bincount(L.couple_row, coupling * z.take(L.couple_pivot),
                                              minlength=len(L.trail_rows))
            zs.append(z)
        y = np.linalg.solve(block, r)
        for L, (pivot, coupling), z in zip(self.levels[::-1], factors[::-1], zs[::-1]):
            rest, y = y, np.empty(len(L.pivot_rows) + len(L.trail_rows))
            y[L.trail_rows] = rest
            y[L.pivot_rows] = (z - np.bincount(L.couple_pivot, coupling * rest.take(L.couple_row),
                                               minlength=len(z))) / pivot
        return y


class BlockRows:
    """The pattern of a matrix with ``nblocks`` column blocks of equal width
    whose rows are sums of terms: term t puts the vector ``values[t]`` in
    block ``block[t]`` of row ``row[t]``, and no two terms share a block of
    a row.  The pair arrays (p, q), built on each use and kept by none (the
    analysis of :attr:`elimination` keeps what it needs of them), list
    every ordered pair of terms in a common block, so that Gram entry (r, s) is the sum of
    <values[p], values[q]> over the pairs with p in row r and q in row s.

    ``reused`` marks a pattern whose Gram matrix is factored again and
    again, as D psi's is at every Gauss-Newton step: the analysis of its
    levels (:attr:`elimination`) is repaid by its uses, so a level is taken
    when it saves time in each use.  Any other pattern's levels must also
    repay their analysis in one use, so that no pattern is slower on its
    first use than with its first level alone."""

    def __init__(self, nrows, nblocks, row, block, reused=False):
        self.nrows, self.nblocks, self.reused = nrows, nblocks, reused
        self.row = np.asarray(row, dtype=np.int32)
        self.block = np.asarray(block, dtype=np.int32)

    @cached_property
    def block_order(self):
        """The terms sorted by block, stably."""
        return np.argsort(self.block, kind="stable")

    @property
    def pairs(self):
        return _pairs_within(self.block, self.nblocks, self.block_order)

    @cached_property
    def elimination(self):
        """The index arrays of :meth:`gram`, built on first use:
        ``dot_pairs``, the pairs (p, q) with p's row at or after q's, in
        pair order, so that each Gram entry (r, s), r >= s, gets its dot
        products once; ``entry``, the entry each belongs to among the
        ``nentries`` structural nonzeros (r, s), r >= s, of the Gram matrix,
        and ``diag``, the diagonal's; the ``levels`` of closed-form pivots
        of :func:`_block_levels`, which leave a block of ``size`` rows, the
        first of them the rows that share no block; and ``lower`` and
        ``upper``, the flat positions in that block of its entries (r, s),
        r >= s, and of their mirrors (s, r).  Every row has a term, and so a
        diagonal entry."""
        p, q = self.pairs
        rp, rq = self.row[p], self.row[q]
        lower = rp >= rq
        keys, entry = np.unique(rp[lower].astype(np.int64) * self.nrows + rq[lower],
                                return_inverse=True)
        levels, last, size = _block_levels(self.nrows, keys, self.reused)
        return _Elimination(
            dot_pairs=(p[lower].astype(np.intp), q[lower].astype(np.intp)),
            entry=entry.astype(np.int32),
            nentries=len(keys),
            diag=keys.searchsorted(np.arange(self.nrows) * (self.nrows + 1)),
            levels=tuple(levels), lower=last, upper=last % size * size + last // size, size=size)

    @cached_property
    def work(self):
        """The m x m array, m the rows of the block that the levels of
        :attr:`elimination` leave, in which every elimination of a Gram
        matrix of this pattern forms that block, allocated once: its
        structural zeros are never written, so they stay zero, and the
        block of one elimination is valid until the pattern's next."""
        size = self.elimination.size
        return np.zeros((size, size))

    def shape(self, values):
        return (self.nrows, self.nblocks * values.shape[1])

    def dense(self, values):
        M = np.zeros((self.nrows, self.nblocks, values.shape[1]))
        M[self.row, self.block] = values
        return M.reshape(self.shape(values))

    def gram(self, values):
        """fl(M M^t) as a :class:`BorderedGram`: Gram entry (r, s) is the
        dot product of each pair's stored vectors, summed per entry in pair
        order, and only the entries (r, s) with r >= s are formed.

        The pivot rows of a level share no structural nonzero, so their
        entries with each other are exact zeros, and the Cholesky
        factorisation of fl(A - s I) that takes them first is: pivot l_i =
        sqrt(B_ii), B the block the level starts from (fl(A - s I) at the
        first); one multiplier fl(B_ri / l_i) per trailing row r that has a
        nonzero with pivot i; and the entries of the next block, fl(B_rs)
        minus the products of the multipliers of r and s, pivot by pivot in
        pivot order.  Each level's entries go into one ``np.bincount``, in
        that order, so each entry of a block is eliminated from its value in
        the block before.  The last block is filled with its entries and
        their mirrors, in :attr:`work`."""
        E = self.elimination
        entries = np.bincount(E.entry, _pair_dots(values, *E.dot_pairs), minlength=E.nentries)

        def eliminate(s):
            block = entries.copy()
            block[E.diag] -= s
            factors = []
            for L in E.levels:
                pivot = block.take(L.diag)
                if not (pivot > 0.0).all():
                    raise np.linalg.LinAlgError("a closed-form pivot is not positive")
                pivot = np.sqrt(pivot)
                coupling = block.take(L.couple) / pivot.take(L.couple_pivot)
                w = np.empty(len(L.entry))
                block.take(L.keep, out=w[:len(L.keep)], mode="clip")
                np.negative(coupling).take(L.update[0], out=w[len(L.keep):], mode="clip")
                w[len(L.keep):] *= coupling.take(L.update[1])
                block = np.bincount(L.entry, w, minlength=L.nentries)
                factors.append((pivot, coupling))
            flat = self.work.reshape(-1)
            flat[E.lower] = block
            flat[E.upper] = block
            return factors, self.work
        return BorderedGram(entries[E.diag], eliminate, E.levels)

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


class _Level(NamedTuple):
    """One level of closed-form pivots of a symmetric block: the block's
    ``pivot_rows`` and ``trail_rows`` (positions in it); one coupling per
    (trailing row, pivot) with a structural nonzero between them, sorted by
    pivot and then by row, at ``couple_row`` and ``couple_pivot`` among the
    trailing rows and the pivots; ``update`` (a, b), every pair of
    couplings with a common pivot and couple_row[a] >= couple_row[b],
    grouped by pivot in pivot order; ``diag``, ``couple`` and ``keep``, the
    block's entries on the pivots' diagonal, of each coupling, and between
    two trailing rows; and ``entry``, the entry of the next block, one of
    its ``nentries``, that each kept entry and then each update goes to."""

    pivot_rows: np.ndarray
    trail_rows: np.ndarray
    couple_row: np.ndarray
    couple_pivot: np.ndarray
    update: tuple
    diag: np.ndarray
    couple: np.ndarray
    keep: np.ndarray
    entry: np.ndarray
    nentries: int


class _Elimination(NamedTuple):
    dot_pairs: tuple
    entry: np.ndarray
    nentries: int
    diag: np.ndarray
    levels: tuple
    lower: np.ndarray
    upper: np.ndarray
    size: int


def _lower_updates(couple_row, group_size):
    """The pairs (a, b) of couplings with a common pivot and couple_row[a]
    >= couple_row[b], grouped by pivot in pivot order, a-major, as int32
    arrays, for couplings sorted by pivot and then by row, ``group_size``
    of them per pivot."""
    n = len(couple_row)
    position = np.arange(n) - np.repeat(np.cumsum(group_size) - group_size, group_size)
    count = position + 1
    first = np.cumsum(count) - count
    a = np.repeat(np.arange(n, dtype=np.int32), count)
    b = np.arange(len(a)) - np.repeat(first - np.arange(n) + position, count)
    return a, b.astype(np.int32)


def _block_levels(m, keys, reused):
    """The levels of closed-form pivots of a symmetric m x m matrix whose
    structural nonzeros (r, c), r >= c, have the sorted flat positions
    ``keys``, as (levels, keys, size) of the block they leave.

    Each level's pivots are rows with no structural nonzero between any two
    of them, in the matrix at the first level and in the block the levels
    before leave at each further one (:func:`_independent_rows`).  The first
    level visits the rows in row order: two rows of a :class:`BlockRows`
    pattern share a nonzero exactly when they share a block.  Each further
    level visits them in order of their number of off-diagonal nonzeros,
    fewest first, ties in row order, which is the multiple elimination of
    Liu's multiple minimum degree ordering (ACM TOMS 11, 1985).  The next
    block's pattern is the kept entries and the fill of the updates.  A
    further level is taken while :func:`_takes_level` expects it to save
    more LAPACK time than it costs, the analysis too unless the pattern is
    ``reused``.  The analysis stops on a block too small for any level to
    pay: one that took every row as a pivot, with no update."""
    levels = []
    while not levels or _takes_level(m, m, 0, 0, reused):
        rows, cols = np.divmod(keys, m)
        pivot = _independent_rows(m, rows, cols, by_degree=bool(levels))
        npivots = int(np.count_nonzero(pivot))
        trail_pos, pivot_pos = np.cumsum(~pivot) - 1, np.cumsum(pivot) - 1
        pr, pc = pivot[rows], pivot[cols]
        couples = np.flatnonzero(pr != pc)
        trail = trail_pos[np.where(pr, cols, rows)[couples]]
        couple_pivot = pivot_pos[np.where(pr, rows, cols)[couples]]
        order = np.lexsort((trail, couple_pivot))
        couples, couple_row, couple_pivot = couples[order], trail[order], couple_pivot[order]
        a, b = _lower_updates(couple_row, np.bincount(couple_pivot, minlength=npivots))
        if levels and not _takes_level(m, npivots, len(keys), len(a), reused):
            break
        keep = np.flatnonzero(~pr & ~pc)
        size = m - npivots
        next_keys, entry = _merge_keys(trail_pos[rows[keep]] * size + trail_pos[cols[keep]],
                                       couple_row[a].astype(np.int64) * size + couple_row[b])
        levels.append(_Level(
            np.flatnonzero(pivot), np.flatnonzero(~pivot), couple_row.astype(np.int32),
            couple_pivot.astype(np.int32), (a, b),
            keys.searchsorted(np.flatnonzero(pivot) * (m + 1)).astype(np.int32),
            couples.astype(np.int32), keep.astype(np.int32), entry.astype(np.int32),
            len(next_keys)))
        m, keys = size, next_keys
    return levels, keys, m


def _merge_keys(kept, fill):
    """np.unique(np.concatenate([kept, fill]), return_inverse=True) for
    sorted distinct ``kept``: only the fill is sorted, and its distinct
    keys that are not kept are merged into the kept ones."""
    fill, fill_entry = np.unique(fill, return_inverse=True)
    at = kept.searchsorted(fill)
    found = at < len(kept)
    found[found] = kept[at[found]] == fill[found]
    new = fill[~found]
    kept_pos = np.arange(len(kept)) + new.searchsorted(kept)
    new_pos = np.arange(len(new)) + at[~found]
    keys = np.empty(len(kept) + len(new), dtype=np.result_type(kept, fill))
    keys[kept_pos], keys[new_pos] = kept, new
    fill_pos = np.empty(len(fill), dtype=np.intp)
    fill_pos[found], fill_pos[~found] = kept_pos[at[found]], new_pos
    return keys, np.concatenate([kept_pos, fill_pos[fill_entry]])


def _independent_rows(m, rows, cols, by_degree):
    """The pivots of a level, as a mask (see :func:`_block_levels`), from
    the block's structural nonzeros (rows, cols), rows >= cols, sorted by
    row:
    greedily, a row is taken when no row taken before is its neighbour,
    visiting the rows in row order or, ``by_degree``, by number of
    neighbours."""
    off = rows != cols
    rows, cols = rows[off], cols[off]
    by_col = np.argsort(cols)
    above = rows[by_col]
    lower_start = np.searchsorted(rows, np.arange(m + 1))
    upper_start = np.searchsorted(cols[by_col], np.arange(m + 1))
    degree = np.diff(lower_start) + np.diff(upper_start)
    order = np.argsort(degree, kind="stable").tolist() if by_degree else range(m)
    lower_start, upper_start = lower_start.tolist(), upper_start.tolist()
    pivot = np.zeros(m, dtype=bool)
    blocked = np.zeros(m, dtype=bool)
    for r in order:
        if not blocked[r]:
            pivot[r] = True
            blocked[cols[lower_start[r]:lower_start[r + 1]]] = True
            blocked[above[upper_start[r]:upper_start[r + 1]]] = True
    return pivot


# The level rule's cost model, in seconds: LAPACK's Cholesky or solve of an
# m x m block takes about LAPACK_CUBE m^3 + LAPACK_SQUARE m^2; a level
# LEVEL_COST plus UPDATE_COST per update, in an elimination and in the
# forward and back substitution of a solve; and the analysis of a level of
# an m x m block ANALYSIS_COST plus ANALYSIS_ROW_COST per row,
# ANALYSIS_ENTRY_COST per structural nonzero r >= s and ANALYSIS_UPDATE_COST
# per update.  Fitted to timings of LAPACK for m = 128..1922 and of the
# levels of D phi, D psi and the staircase (OpenBLAS 0.3, numpy 2.4, two
# Xeon cores); CHANGES.md has the measurements.
LAPACK_CUBE = 5.6e-12
LAPACK_SQUARE = 9.3e-9
LEVEL_COST = 2e-5
UPDATE_COST = 7e-9
ANALYSIS_COST = 5.4e-5
ANALYSIS_ROW_COST = 1.7e-7
ANALYSIS_ENTRY_COST = 4.2e-8
ANALYSIS_UPDATE_COST = 2.9e-8


def _lapack_cost(m):
    return (LAPACK_CUBE * m + LAPACK_SQUARE) * m * m


def _takes_level(m, npivots, nentries, nupdates, reused):
    """Whether a level of ``npivots`` pivots and ``nupdates`` updates on an
    m x m block with ``nentries`` structural nonzeros r >= s is expected to
    save more LAPACK time than it costs: in one use and, unless the pattern
    is ``reused``, in its analysis."""
    cost = LEVEL_COST + UPDATE_COST * nupdates
    if not reused:
        cost += (ANALYSIS_COST + ANALYSIS_ROW_COST * m + ANALYSIS_ENTRY_COST * nentries
                 + ANALYSIS_UPDATE_COST * nupdates)
    return _lapack_cost(m) - _lapack_cost(m - npivots) > cost


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


def _pair_dots(values, p, q):
    """fl(<values[p], values[q]>) for each pair, summed in column order."""
    columns = values.T.copy()
    left, right = np.empty(len(p)), np.empty(len(p))
    out = columns[0].take(p) * columns[0].take(q)
    for column in columns[1:]:
        out += np.multiply(column.take(p, out=left, mode="clip"),
                           column.take(q, out=right, mode="clip"), out=left)
    return out


def numerical_rank(M, policy=DEFAULT_RANK_POLICY):
    """Numerical rank of a matrix: certified full when
    :func:`_full_rank_certificate` holds, else from :func:`svd_rank`.

    ``M`` is a matrix or a :class:`StructuredMatrix`, whose Gram matrix
    serves when its rows are the short side.  Otherwise the matrix is built
    for the Gram matrix of its short side and dropped before the
    factorisation.  The Gram matrix is dropped before the SVD, which builds
    the matrix again, so a large matrix and the Cholesky buffers are never
    held at once; only the work array of a pattern's Gram matrix
    (:attr:`BlockRows.work`) stays with its pattern."""
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
      products subtracted one by one.  Each further level does the same on
      the block the levels before leave, whose entries are the partial
      sums b_rs - sum_t l_rt l_st over the pivots t taken so far.  An entry
      that is structurally zero there, with no shared block and no earlier
      pivot coupled to both rows, is an exact zero: no product was ever
      added to it.  The level's pivots have only such entries between them,
      so again their l_ij are exact zeros, and the level's pivots,
      multipliers and updates are the formulas above, each a continuation
      of the same sums in pivot order.  The arrow form
      (:meth:`BorderedGram.arrow`) takes its one level the same way, but
      forms fl(E - s I) of its dense block first and then subtracts from
      each entry the sum of the products of its multipliers, accumulated
      by BLAS: fl(b_rs - fl(sum_i l_ri l_si)) is another order of
      evaluation of the same expression, which the backward error allows.
      LAPACK then factors the block left,
      which completes the floating-point Cholesky factorisation of P B P^T
      in one order of evaluation, P taking the levels in turn.  A pivot
      that is not positive stops it, as it would stop LAPACK; with no such
      rows this is LAPACK's factorisation of B.

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
    uncertain = bool(gap < GAP_THRESHOLD)
    return RankResult(rank, s, tau, gap, uncertain, "svd")


def _gamma(j):
    return j * UNIT_ROUNDOFF / (1.0 - j * UNIT_ROUNDOFF)


def _finite(M):
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return M
