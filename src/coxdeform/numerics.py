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
other as its first pivots, chosen greedily in row order: their block of the
Gram matrix is diagonal, so those steps have a closed form.  Only the
trailing block, the Schur complement, is formed densely and handed to
LAPACK (:class:`BorderedGram`).  The pattern of that level is worked out
once per pattern and cached.  This is the same floating-point Cholesky of
the same shifted matrix in another pivot order, so the certificate is
unchanged (:func:`_full_rank_certificate`).  Each pattern forms the block
left to LAPACK in one m x m work array of its own (:attr:`BlockRows.work`),
so a block is valid until the pattern's next elimination.
The Gauss-Newton step of :mod:`coxdeform.lorentz` solves through the same
elimination of D psi's Gram matrix at the shift -mu that its certificate
factors at +s (:meth:`BorderedGram.solve`).
A Gram matrix whose rows are a few dense rows after many that share no
column, as the gauge directions of :mod:`coxdeform.vinberg` are, is given
in arrow form (:meth:`BorderedGram.arrow`): the diagonal of the many, their
coupling to the few, and the few's own dense block, which is all LAPACK
factors after the one level of closed-form pivots.

A pattern's Gram matrix may carry a hint, a :class:`RowSymmetry`: a
permutation pi of its rows, of order K, under which it is invariant up to
rounding, as the ring rotation of :mod:`coxdeform.lorentz` makes those of
D psi, the E2 staircase and D phi.  The certificate then first tries the
mode blocks (:func:`_mode_blocks`; Fassler and Stiefel, Group Theoretical
Methods and Their Applications, 1992).  With W the short side (k x q) of the
matrix, A = fl(W W^t), D the signs of the hint, A_sym the symmetrised block
circulant read off one representative row per orbit, B_l^exact the blocks
of its exact real DFT over the orbits, B_l the K / 2 + 1 computed blocks,
each of one size k' that does not grow with the orbits' length, and t the
certified bound:

    lambda_min(W W^t) >= lambda_min(A) - gamma_q sigma_bar^2 - k q eta
                      >= lambda_min(A_sym) - e_bar - gamma_q sigma_bar^2 - k q eta
                       = min_l lambda_min(B_l^exact) - e_bar - ...
                      >= min_l lambda_min(B_l) - delta_bar - e_bar - ...
                       > s (1 - u) - c' - u d_max - delta_bar - e_bar - ...
                      >= t^2,

by Weyl's inequality with e_bar >= ||D A D - A_sym||_2 (the asymmetry) and
lambda_min(D A D) = lambda_min(A); by the DFT's orthogonality; by Weyl's
inequality with delta_bar >= ||B_l - B_l^exact||_2 (the DFT's rounding);
and by Rump's bound for one batched LAPACK Cholesky of the blocks
fl(B_l - s I), each of k' rows with diagonal entries at most d_max, so
that c' = gamma_{k'+1} / (1 - gamma_{k'+1}) k' d_max plus his underflow
term.  The shift s of :func:`_full_rank_certificate` is raised by e_bar
and delta_bar, with c' and d_max in place of c and max A_ii.  The mode
path runs where the level of closed-form pivots leaves at least
MODE_PATH_ROWS rows to LAPACK (:meth:`BlockRows.modes`), and where it fails
the level and LAPACK decide as before: the hint is never trusted, so a
wrong one costs time, not a wrong certificate.  Each pattern's mode form
(:class:`_ModeForm`) keeps the buffers in which every certificate forms the
circulant blocks, the source vector and the stack of mode blocks, so that
the blocks are valid until the pattern's next certificate, as its work
array's block is.  At
the loebell(64) factor D psi's stack (17 x 32 x 32 doubles, 139 264 B)
passes glibc's default 128 KiB mmap threshold, so a stack allocated per
certificate is mapped, faulted in page by page and unmapped each time.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
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
    ``eliminate(s)``, the Cholesky factorisation of fl(A - s I) through at
    most one level of closed-form pivots, as (level, block): the level's
    (analysis, pivots, multipliers), or None, and the m x m block left.  It
    raises LinAlgError, as LAPACK does, at a pivot that is not positive.  A
    dense A has no level (:meth:`dense`); the Gram matrix of a pattern has
    that of :attr:`BlockRows.elimination` and forms its block in the
    pattern's :attr:`BlockRows.work`; an arrow form has one, which it
    eliminates itself (:meth:`arrow`).  The block is valid until the next
    elimination of the same dense matrix or pattern.  ``modes``, where not
    None, returns the mode blocks of :func:`_mode_blocks`, which the
    certificate factors first."""

    diagonal: np.ndarray
    eliminate: Callable
    modes: Callable = None

    @classmethod
    def dense(cls, A):
        """fl(A - s I) itself, formed in A, which is overwritten; A's
        diagonal is kept, so A can be eliminated again."""
        diagonal = np.diagonal(A).copy()

        def eliminate(s):
            np.subtract(diagonal, s, out=A.reshape(-1)[::len(A) + 1])
            return None, A
        return cls(diagonal, eliminate)

    @classmethod
    def arrow(cls, pivots, coupling, border):
        """The Gram matrix [[diag(``pivots``), C^t], [C, E]] of k rows that
        share no column with each other followed by g rows, C (g x k) the
        ``coupling`` and E (g x g) the ``border``: the k rows are one level
        of closed-form pivots l = sqrt(fl(pivots - s)), with multipliers L =
        fl(C / l), and the g x g block left is fl(fl(E - s I) - fl(L L^t)),
        the sums of products accumulated by BLAS.  It is not solved: its
        level's analysis is None, not the :class:`_Level` that
        :meth:`solve` reads."""

        def eliminate(s):
            pivot = pivots - s
            if not (pivot > 0.0).all():
                raise np.linalg.LinAlgError("a closed-form pivot is not positive")
            pivot = np.sqrt(pivot)
            multipliers = coupling / pivot
            block = border.copy()
            block.reshape(-1)[::len(block) + 1] -= s
            block -= multipliers @ multipliers.T
            return (None, pivot, multipliers), block
        return cls(np.concatenate([pivots, np.diagonal(border)]), eliminate)

    def trailing(self, s):
        """The trailing block of the factorisation of fl(A - s I)."""
        return self.eliminate(s)[1]

    def solve(self, s, r):
        """y with fl(A - s I) y = r by the same factorisation: with no level,
        LAPACK's solve; otherwise z = r_p / l through the level's pivots l,
        the trailing block solved by LAPACK with right-hand side r_t - C z,
        C the level's multipliers, and back, y_p = (z - C^t y_t) / l.

        fl(A - s I) must be positive definite.  On an indefinite matrix a
        pivot of the level may not be positive, and the solve raises
        LinAlgError as :attr:`eliminate` does; a dense form, with no level,
        solves any nonsingular fl(A - s I) by LAPACK."""
        level, block = self.eliminate(s)
        if level is None:
            return np.linalg.solve(block, r)
        L, pivot, coupling = level
        z = r[L.pivot_rows] / pivot
        rest = np.linalg.solve(block, r[L.trail_rows] - np.bincount(
            L.couple_row, coupling * z.take(L.couple_pivot), minlength=len(L.trail_rows)))
        y = np.empty(len(r))
        y[L.trail_rows] = rest
        y[L.pivot_rows] = (z - np.bincount(L.couple_pivot, coupling * rest.take(L.couple_row),
                                           minlength=len(z))) / pivot
        return y


class RowSymmetry(NamedTuple):
    """A permutation of the rows of a :class:`BlockRows` pattern, given to
    :meth:`BlockRows.matrix` as a hint for the mode certificate
    (:func:`_mode_blocks`): row ``image[r]`` is expected to be ``sign[r]``
    (+1 or -1) times row r with its blocks permuted and each block's vector
    moved by one orthogonal map, so that the Gram matrix is invariant under
    it up to rounding.  No conclusion rests on the hint: under a wrong one
    the asymmetry term is large and the certificate fails."""

    image: np.ndarray
    sign: np.ndarray

    @classmethod
    def of_pairs(cls, blocks, x, y, reverse):
        """The symmetry of rows keyed by ordered pairs of block numbers, row
        r by (``x[r]``, ``y[r]``), under the block permutation ``blocks``:
        the image of row r is the row keyed by (blocks[x[r]], blocks[y[r]]).
        A row with ``reverse[r]`` nonzero is keyed by (y[r], x[r]) as well,
        with that sign.  None where some image has no row."""
        n, nblocks = len(x), len(blocks)
        back = np.flatnonzero(reverse)
        keys = np.concatenate([x * nblocks + y, y[back] * nblocks + x[back]])
        rows = np.concatenate([np.arange(n), back])
        signs = np.concatenate([np.ones(n), reverse[back]])
        order = np.argsort(keys, kind="stable")
        keys, rows, signs = keys[order], rows[order], signs[order]
        want = blocks[x] * nblocks + blocks[y]
        at = np.minimum(keys.searchsorted(want), len(keys) - 1)
        if not np.array_equal(keys[at], want):
            return None
        return cls(rows[at], signs[at])


class BlockRows:
    """The pattern of a matrix with ``nblocks`` column blocks of equal width
    whose rows are sums of terms: term t puts the vector ``values[t]`` in
    block ``block[t]`` of row ``row[t]``, and no two terms share a block of
    a row.  The pair arrays (p, q), built on each use and kept by none (the
    analysis of :attr:`structure` keeps what it needs of them), list
    every ordered pair of terms in a common block, so that Gram entry (r, s) is the sum of
    <values[p], values[q]> over the pairs with p in row r and q in row s."""

    def __init__(self, nrows, nblocks, row, block):
        self.nrows, self.nblocks = nrows, nblocks
        self.row = np.asarray(row, dtype=np.int32)
        self.block = np.asarray(block, dtype=np.int32)
        self._modes = None

    @cached_property
    def block_order(self):
        """The terms sorted by block, stably."""
        return np.argsort(self.block, kind="stable")

    @property
    def pairs(self):
        return _pairs_within(self.block, self.nblocks, self.block_order)

    @cached_property
    def structure(self):
        """The index arrays of the entries of :meth:`gram`, built on first
        use: ``dot_pairs``, the pairs (p, q) with p's row at or after q's,
        in pair order, so that each Gram entry (r, s), r >= s, gets its dot
        products once; ``keys``, the sorted flat positions r m + s of the
        structural nonzeros (r, s), r >= s, of the Gram matrix; ``entry``,
        the one among them that each pair belongs to; and ``diag``, the
        diagonal's.  Every row has a term, and so a diagonal entry."""
        p, q = self.pairs
        rp, rq = self.row[p], self.row[q]
        lower = rp >= rq
        keys, entry = np.unique(rp[lower].astype(np.int64) * self.nrows + rq[lower],
                                return_inverse=True)
        return _GramStructure(
            dot_pairs=(p[lower].astype(np.intp), q[lower].astype(np.intp)), keys=keys,
            entry=entry.astype(np.int32),
            diag=keys.searchsorted(np.arange(self.nrows) * (self.nrows + 1)))

    @cached_property
    def pivots(self):
        """The mask of the rows that the level of closed-form pivots takes
        (:func:`_independent_rows`), found on first use."""
        rows, cols = np.divmod(self.structure.keys, self.nrows)
        return _independent_rows(self.nrows, rows, cols)

    @cached_property
    def elimination(self):
        """The analysis of the Cholesky factorisation of :meth:`gram`, built
        on first use: the ``level`` of closed-form pivots of
        :func:`_block_level`, the rows that share no block, which leaves a
        block of ``size`` rows; and ``lower`` and ``upper``, the flat
        positions in that block of its entries (r, s), r >= s, and of their
        mirrors (s, r)."""
        level, last, size = _block_level(self.nrows, self.structure.keys, self.pivots)
        return _Elimination(level=level, lower=last,
                            upper=last % size * size + last // size, size=size)

    @cached_property
    def work(self):
        """The m x m array, m the rows of the block that the level of
        :attr:`elimination` leaves, in which every elimination of a Gram
        matrix of this pattern forms that block, allocated once: its
        structural zeros are never written, so they stay zero, and the
        block of one elimination is valid until the pattern's next."""
        size = self.elimination.size
        return np.zeros((size, size))

    def modes(self, symmetry):
        """The :class:`_ModeForm` of this pattern's Gram matrix under the
        :class:`RowSymmetry` ``symmetry``, built once and kept with the
        last symmetry asked for; None where the level of pivots
        (:attr:`pivots`) leaves fewer than MODE_PATH_ROWS rows to LAPACK, in
        which case no form is built, or where the symmetry has no orbit of
        its order."""
        if self._modes is None or self._modes[0] is not symmetry:
            form = None
            if self.nrows - np.count_nonzero(self.pivots) >= MODE_PATH_ROWS:
                form = _mode_form(self.nrows, self.structure.keys, symmetry)
            self._modes = (symmetry, form)
        return self._modes[1]

    def shape(self, values):
        return (self.nrows, self.nblocks * values.shape[1])

    def dense(self, values):
        M = np.zeros((self.nrows, self.nblocks, values.shape[1]))
        M[self.row, self.block] = values
        return M.reshape(self.shape(values))

    def gram(self, values, symmetry=None):
        """fl(M M^t) as a :class:`BorderedGram`: Gram entry (r, s) is the
        dot product of each pair's stored vectors, summed per entry in pair
        order, and only the entries (r, s) with r >= s are formed.

        The pivot rows of the level share no structural nonzero, so their
        entries with each other are exact zeros, and the Cholesky
        factorisation of fl(A - s I) = B that takes them first is: pivot l_i
        = sqrt(B_ii); one multiplier fl(B_ri / l_i) per trailing row r that
        has a nonzero with pivot i; and the entries of the trailing block,
        fl(B_rs) minus the products of the multipliers of r and s, pivot by
        pivot in pivot order.  They go into one ``np.bincount``, in that
        order, and the block is filled with them and their mirrors, in
        :attr:`work`.  The level is analysed on the first elimination, not
        before.  Under a :class:`RowSymmetry` whose
        mode path is taken (:meth:`modes`), the entries also give the mode
        blocks (:func:`_mode_blocks`)."""
        G = self.structure
        entries = self.gram_entries(values)

        def eliminate(s):
            E = self.elimination
            L = E.level
            block = entries.copy()
            block[G.diag] -= s
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
            flat = self.work.reshape(-1)
            flat[E.lower] = block
            flat[E.upper] = block
            return (L, pivot, coupling), self.work
        form = None if symmetry is None else self.modes(symmetry)
        modes = None if form is None else (lambda: _mode_blocks(form, entries))
        return BorderedGram(entries[G.diag], eliminate, modes)

    def gram_entries(self, values):
        """The structural nonzeros (r, s), r >= s, of fl(M M^t), in the
        order of :attr:`structure`'s keys: each the dot products of its
        pairs' stored vectors, summed in pair order."""
        G = self.structure
        return np.bincount(G.entry, _pair_dots(values, *G.dot_pairs), minlength=len(G.keys))

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

    def matrix(self, values, symmetry=None):
        """M as a :class:`StructuredMatrix`, its Gram matrix under the hint
        ``symmetry`` (:meth:`gram`)."""
        return StructuredMatrix(self.shape(values), lambda: self.gram(values, symmetry),
                                lambda: self.dense(values))


class _Level(NamedTuple):
    """A level of closed-form pivots of a symmetric block: the block's
    ``pivot_rows`` and ``trail_rows`` (positions in it); one coupling per
    (trailing row, pivot) with a structural nonzero between them, sorted by
    pivot and then by row, at ``couple_row`` and ``couple_pivot`` among the
    trailing rows and the pivots; ``update`` (a, b), every pair of
    couplings with a common pivot and couple_row[a] >= couple_row[b],
    grouped by pivot in pivot order; ``diag``, ``couple`` and ``keep``, the
    block's entries on the pivots' diagonal, of each coupling, and between
    two trailing rows; and ``entry``, the entry of the trailing block, one
    of its ``nentries``, that each kept entry and then each update goes to."""

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


class _GramStructure(NamedTuple):
    dot_pairs: tuple
    keys: np.ndarray
    entry: np.ndarray
    diag: np.ndarray


class _Elimination(NamedTuple):
    level: _Level
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


def _block_level(m, keys, pivot):
    """The level of closed-form pivots of a symmetric m x m matrix whose
    structural nonzeros (r, c), r >= c, have the sorted flat positions
    ``keys``, as (level, keys, size) of the block it leaves.

    The pivots, the mask ``pivot``, are rows with no structural nonzero
    between any two of them, taken greedily in row order
    (:func:`_independent_rows`): two rows of a :class:`BlockRows` pattern
    share a nonzero exactly when they share a block.  The trailing block's
    pattern is the kept entries and the fill of the updates."""
    rows, cols = np.divmod(keys, m)
    npivots = int(np.count_nonzero(pivot))
    trail_pos, pivot_pos = np.cumsum(~pivot) - 1, np.cumsum(pivot) - 1
    pr, pc = pivot[rows], pivot[cols]
    couples = np.flatnonzero(pr != pc)
    trail = trail_pos[np.where(pr, cols, rows)[couples]]
    couple_pivot = pivot_pos[np.where(pr, rows, cols)[couples]]
    order = np.lexsort((trail, couple_pivot))
    couples, couple_row, couple_pivot = couples[order], trail[order], couple_pivot[order]
    a, b = _lower_updates(couple_row, np.bincount(couple_pivot, minlength=npivots))
    keep = np.flatnonzero(~pr & ~pc)
    size = m - npivots
    next_keys, entry = np.unique(np.concatenate([
        trail_pos[rows[keep]] * size + trail_pos[cols[keep]],
        couple_row[a].astype(np.int64) * size + couple_row[b]]), return_inverse=True)
    level = _Level(
        np.flatnonzero(pivot), np.flatnonzero(~pivot), couple_row.astype(np.int32),
        couple_pivot.astype(np.int32), (a, b),
        keys.searchsorted(np.flatnonzero(pivot) * (m + 1)).astype(np.int32),
        couples.astype(np.int32), keep.astype(np.int32), entry.astype(np.int32),
        len(next_keys))
    return level, next_keys, size


def _independent_rows(m, rows, cols):
    """The pivots of a level, as a mask (see :func:`_block_level`), from
    the matrix's structural nonzeros (rows, cols), rows >= cols, sorted by
    row: greedily, a row is taken when no row taken before is its
    neighbour, visiting the rows in row order."""
    off = rows != cols
    rows, cols = rows[off], cols[off]
    by_col = np.argsort(cols)
    above = rows[by_col]
    lower_start = np.searchsorted(rows, np.arange(m + 1)).tolist()
    upper_start = np.searchsorted(cols[by_col], np.arange(m + 1)).tolist()
    pivot = np.zeros(m, dtype=bool)
    blocked = np.zeros(m, dtype=bool)
    for r in range(m):
        if not blocked[r]:
            pivot[r] = True
            blocked[cols[lower_start[r]:lower_start[r + 1]]] = True
            blocked[above[upper_start[r]:upper_start[r + 1]]] = True
    return pivot


# The mode path is taken where the level of closed-form pivots leaves at
# least MODE_PATH_ROWS rows to LAPACK (:meth:`BlockRows.modes`).  Each
# pattern of the benchmark takes the same path for any value from 83 to 96.
# At 84 rows left (D psi of the loebell(14) factor and of the prism(28)
# caps, the staircase of the loebell(28) factor) a warm certificate costs as
# much or less through the mode blocks, 0.08-0.09 ms against 0.085-0.10 ms
# (numpy 2.4, two Xeon cores), while building the mode form costs 0.2-0.5
# ms once per pattern.  Taken everywhere, the mode path slowed the
# dimension and rank-sum decisions of the prism(8) caps and the loebell(8)
# factor from 0.52 to 0.62 ms and from 0.59 to 0.70 ms.
MODE_PATH_ROWS = 84


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
    out = np.multiply(columns[0].take(p, out=left, mode="clip"),
                      columns[0].take(q, out=right, mode="clip"))
    for column in columns[1:]:
        out += np.multiply(column.take(p, out=left, mode="clip"),
                           column.take(q, out=right, mode="clip"), out=left)
    return out


# -- the mode certificate of a Gram matrix with a cyclic row symmetry -----------

class _ModeForm(NamedTuple):
    """The analysis of :func:`_mode_form`: the order ``K`` of the row
    permutation, its ``nfixed`` fixed rows and ``norbits`` orbits of K
    rows; per structural entry r >= s of the Gram matrix, ``entry_sign``
    sigma_r sigma_s and ``entry_cell``, its cell; per cell, ``rep``, its
    representative entry (the number of entries where it has none);
    ``loose``, the cells with positions where the Gram matrix has no
    structural entry, and ``missing``, how many each has;
    ``circulant``, the cell of each entry of the circulant blocks C_j (K x
    b^2, each block flat), of the fixed rows' coupling to the orbits
    (``coupling``, nfixed x b, flat) and of their own block (``fixed``,
    flat), the number of cells where none; the assembly of the mode blocks
    (:func:`_mode_blocks`): ``layout``, the place in the source vector of
    each entry of the stacked blocks, and ``diagonal``, the places of their
    diagonal entries that are not padding; and the buffers in which each
    use of the form builds the C_j (``circulant_values``), the ``source``
    vector (whose zero entry is never written) and the stacked ``blocks``,
    allocated once, so that a use's blocks are valid until the form's next
    use."""

    K: int
    nfixed: int
    norbits: int
    entry_sign: np.ndarray
    entry_cell: np.ndarray
    rep: np.ndarray
    loose: np.ndarray
    missing: np.ndarray
    circulant: np.ndarray
    coupling: np.ndarray
    fixed: np.ndarray
    layout: np.ndarray
    diagonal: np.ndarray
    circulant_values: np.ndarray
    source: np.ndarray
    blocks: np.ndarray


def _row_orbits(symmetry):
    """(K, size, orbit, power, sigma) of the orbits of a
    :class:`RowSymmetry`, or None unless it is a permutation whose orbits
    all have one row or K >= 2 rows: each row's orbit size, orbit number
    (orbits numbered by their smallest row, which is the representative
    r_o) and power k with row = pi^k(r_o), and sigma_r, the product of the
    signs along that path, so that row r is expected to be sigma_r times
    the turned representative.  An orbit whose signs multiply to -1, or a
    fixed row with sign -1, returns None as well."""
    image, sign = symmetry
    n = len(image)
    if n == 0 or not np.array_equal(np.bincount(image, minlength=n), np.ones(n, dtype=np.intp)):
        return None
    rows = np.arange(n)
    size = np.where(image == rows, 1, 0)
    low, current, K = np.minimum(rows, image), image, 1
    while K < n and not size.all():
        current = image[current]
        low = np.minimum(low, current)
        K += 1
        back = current == rows
        if (back & (size == 0)).any():
            size[back & (size == 0)] = K
            break
    if K < 2 or not size.all() or not ((size == 1) | (size == K)).all() \
            or (sign[size == 1] != 1).any():
        return None
    reps = np.flatnonzero((size == K) & (low == rows))
    orbit, power, sigma = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp), np.ones(n)
    current, path = reps, np.ones(len(reps))
    for k in range(K):
        orbit[current], power[current], sigma[current] = np.arange(len(reps)), k, path
        path = path * sign[current]
        current = image[current]
    if (path != 1).any():
        return None
    return K, size, orbit, power, sigma


def _mode_form(m, keys, symmetry):
    """The cells of the symmetrised block-circulant A_sym of the m x m Gram
    matrix A with structural nonzeros ``keys`` (flat positions r m + s, r
    >= s, sorted) under ``symmetry`` (:func:`_row_orbits`), as a
    :class:`_ModeForm`; None where the symmetry has no orbit of K rows.

    Write D = diag(sigma) and each row of an orbit as (o, k), its orbit and
    power.  A cell is a class of positions on which A_sym is constant: for
    two orbits, (o, o', j) = the positions ((o, k), (o', k + j)) for every
    k, together with its mirror (o', o, K - j), which keeps A_sym
    symmetric; for a fixed row f and an orbit o, the positions (f, (o, k))
    and their mirrors; for fixed rows f and f', (f, f') and (f', f).  The
    value of A_sym on a cell is that of D A D at its representative
    position, in the representative row of o (k = 0): ((o, 0), (o', j)) for
    the canonical one of (o, o', j) and its mirror (the smaller number), and
    (f, (o, 0)); zero where that position is not a structural nonzero.
    Only cells with a structural nonzero are kept."""
    orbits = _row_orbits(symmetry)
    if orbits is None:
        return None
    K, size, orbit, power, sigma = orbits
    full = size == K
    b, nf = int(full.sum()) // K, int((~full).sum())
    if b == 0:
        return None
    fixed_at = np.cumsum(~full) - 1
    r, s = np.divmod(keys, m)
    off = r != s
    # two orbits: the cell (o, o', j) and its mirror
    j = (power[s] - power[r]) % K
    cell = (orbit[r] * b + orbit[s]) * K + j
    mirror = (orbit[s] * b + orbit[r]) * K + (K - j) % K
    canon = np.minimum(cell, mirror)
    rep = ((cell == canon) & (power[r] == 0)) | ((mirror == canon) & (power[s] == 0))
    positions = np.where(cell == mirror, K, 2 * K)
    # a fixed row and an orbit
    nc = b * b * K
    one = full[r] != full[s]
    o_row, f_row = np.where(full[r], r, s)[one], np.where(full[r], s, r)[one]
    canon[one] = nc + fixed_at[f_row] * b + orbit[o_row]
    rep[one] = power[o_row] == 0
    positions[one] = 2 * K
    # two fixed rows: fixed_at[r] >= fixed_at[s]
    two = ~full[r] & ~full[s]
    canon[two] = nc + nf * b + fixed_at[r[two]] * nf + fixed_at[s[two]]
    rep[two] = True
    positions[two] = np.where(off, 2, 1)[two]

    cells, entry_cell = np.unique(canon, return_inverse=True)
    ncells = len(cells)
    reps = np.full(ncells, len(keys))
    reps[entry_cell[rep]] = np.flatnonzero(rep)
    cell_positions = np.zeros(ncells, dtype=np.int64)
    cell_positions[entry_cell] = positions
    filled = np.bincount(entry_cell, weights=np.where(off, 2, 1), minlength=ncells)
    circulant = np.full((K, b, b), ncells)
    within = np.flatnonzero(cells < nc)
    o1, o2, jj = cells[within] // (b * K), cells[within] // K % b, cells[within] % K
    circulant[jj, o1, o2] = within
    circulant[(K - jj) % K, o2, o1] = within
    circulant = circulant.reshape(K, b * b)
    coupling = np.full(nf * b, ncells)
    at = np.flatnonzero((cells >= nc) & (cells < nc + nf * b))
    coupling[cells[at] - nc] = at
    fixed = np.full((nf, nf), ncells)
    at = np.flatnonzero(cells >= nc + nf * b)
    f1, f2 = np.divmod(cells[at] - nc - nf * b, nf)
    fixed[f1, f2] = fixed[f2, f1] = at
    layout, diagonal = _mode_layout(K, nf, b)
    loose = np.flatnonzero(filled < cell_positions)
    return _ModeForm(K, nf, b, sigma[r] * sigma[s], entry_cell.astype(np.intp), reps, loose,
                     cell_positions[loose] - filled[loose], circulant, coupling, fixed.ravel(),
                     layout, diagonal, np.empty((K, b * b)),
                     np.zeros(len(_twiddles(K)) * b * b + nf * b + nf * nf + 2),
                     np.empty(layout.shape))


def _mode_layout(K, nf, b):
    """The assembly of the K // 2 + 1 mode blocks of :func:`_mode_blocks`,
    stacked at one size k, from the source vector: the products of the rows
    of :func:`_twiddles` with the circulant blocks (b x b each), then the
    nf x b coupling of the fixed rows times sqrt(K), the fixed rows' nf x
    nf block, a zero and the padding.  Returns (layout, diagonal): the
    source of each entry of the stack, and the sources of the diagonal
    entries that are not padding."""
    h, npairs = K // 2, (K - 1) // 2
    k = max(nf + b, 2 * b if npairs else b)
    square = b * b * (h + 1 + 2 * npairs)
    zero = square + nf * b + nf * nf
    layout = np.full((h + 1, k, k), zero)
    inner = np.arange(b)[:, None] * b + np.arange(b)
    coupling = square + np.arange(nf)[:, None] * b + np.arange(b)
    layout[0, :nf, :nf] = square + nf * b + np.arange(nf)[:, None] * nf + np.arange(nf)
    layout[0, :nf, nf:nf + b] = coupling
    layout[0, nf:nf + b, :nf] = coupling.T
    layout[0, nf:nf + b, nf:nf + b] = inner
    pair = np.arange(1, npairs + 1)[:, None, None] * b * b + inner
    layout[1:npairs + 1, :b, :b] = layout[1:npairs + 1, b:2 * b, b:2 * b] = pair
    layout[1:npairs + 1, :b, b:2 * b] = pair + h * b * b  # sin
    layout[1:npairs + 1, b:2 * b, :b] = pair + (h + npairs) * b * b  # -sin
    if K % 2 == 0:
        layout[h, :b, :b] = h * b * b + inner
    diagonal = layout.reshape(h + 1, -1)[:, ::k + 1]
    used = diagonal != zero
    diagonal[~used] = zero + 1
    return layout, diagonal[used]


@cache
def _twiddles(K):
    """The real DFT table over K positions, built once per K: the rows
    cos(2 pi l j / K) for l = 0..K/2, sin(2 pi l j / K) for l =
    1..(K-1)/2, and the same sines negated, j the column.  Each angle is 2
    pi ((l j) mod K) / K, formed in three roundings and taken by
    :mod:`math`."""
    cos = [[math.cos(2.0 * math.pi * (l * j % K) / K) for j in range(K)]
           for l in range(K // 2 + 1)]
    sin = [[math.sin(2.0 * math.pi * (l * j % K) / K) for j in range(K)]
           for l in range(1, (K + 1) // 2)]
    table = np.array(cos + sin + [[-t for t in row] for row in sin])
    table.flags.writeable = False
    return table


# The error of a twiddle: an angle below 2 pi formed in three roundings is
# within 19 u of 2 pi l j / K, cosine and sine are 1-Lipschitz, and each is
# taken to within an ulp (at most u in [-1, 1]); 32 u covers the sum.
TWIDDLE_ERROR = 32.0 * UNIT_ROUNDOFF


def _mode_blocks(form, entries):
    """The real mode blocks of the symmetrised Gram matrix, with the bound
    on what separates their eigenvalues from those of the Gram matrix:
    (blocks, extra, dmax), ``blocks`` the K // 2 + 1 blocks stacked at one
    size k, ``dmax`` their largest diagonal entry, and ``extra`` = e_bar +
    delta_bar (:func:`_full_rank_certificate`).  ``entries`` are the Gram
    matrix's structural nonzeros r >= s (:meth:`BlockRows.gram`).

    A_sym (:func:`_mode_form`) is block circulant over the orbits: its
    block ((o, k), (o', k')) is C_{k'-k}[o, o'], with C_j = A_sym((o, 0),
    (o', j)) and C_{K-j} = C_j^t, and a fixed row f meets every row of
    orbit o in g[f, o].  The real DFT over the orbits, with rows
    sqrt(1/K), sqrt(2/K) cos(2 pi l k / K), sqrt(2/K) sin(2 pi l k / K) and
    (-1)^k sqrt(1/K), is orthogonal and takes A_sym to the direct sum of:
    mode 0, [[F, sqrt(K) g], [sqrt(K) g^t, R_0]] with F the fixed rows'
    block; each mode pair (l, K - l), 0 < l < K/2, [[R_l, S_l], [-S_l,
    R_l]] with R_l = sum_j cos(2 pi l j / K) C_j and S_l = sum_j sin(2 pi l
    j / K) C_j; and, for even K, R_{K/2}.  Each block is padded to k with
    dmax on the diagonal, which leaves its smallest eigenvalue, at most its
    smallest diagonal entry, unchanged.

    - e_bar >= ||D A D - A_sym||_2, by its Frobenius norm.  That matrix E
      is zero off the kept cells.  On A's structural nonzeros its entries
      are the differences of an entry and its representative, each
      computed within a factor 1 - u, and E is symmetric there, so twice
      the sum of squares over the entries r >= s bounds that part; on the
      positions of a kept cell where A has no structural nonzero, E is the
      cell's value.  With n terms in all, 1 + gamma_{2n+8} covers the sums'
      rounding and the 1 / (1 - u)^2, and 3 n eta their underflow.
    - delta_bar >= ||B_l - B_l^exact||_2 for every block, B_l^exact the
      block of the exact DFT of A_sym and B_l the symmetric matrix of the
      block that LAPACK reads: an entry of R_l or S_l is a matrix product
      over K twiddles t~ with |t~ - t| <= TWIDDLE_ERROR, so it is within rho
      sum_j |C_j[o, o']| of the exact one, rho = TWIDDLE_ERROR + gamma_K (1 +
      TWIDDLE_ERROR); an entry of fl(fl(sqrt K) g) is within 2.01 u of
      sqrt(K) g, which rho covers; F is exact.  The 2-norm is at most k
      times the largest entry.  1 + gamma_{K+4} covers the sums of |C_j|
      and the products forming the bounds."""
    K, b = form.K, form.norbits
    signed = entries * form.entry_sign
    value = np.append(signed, 0.0).take(form.rep)
    difference = np.subtract(signed, value.take(form.entry_cell), out=signed)
    loose = value.take(form.loose)
    n = len(difference) + len(loose)
    asym = math.sqrt((2.0 * float(difference @ difference) + float(form.missing @ (loose * loose))
                      + 3 * n * SMALLEST_SUBNORMAL) * (1.0 + _gamma(2 * n + 8)))
    value = np.append(value, 0.0)
    twiddles, circulant, source = _twiddles(K), form.circulant_values, form.source
    value.take(form.circulant, out=circulant, mode="clip")
    square = len(twiddles) * b * b
    fixed = square + len(form.coupling)
    np.matmul(twiddles, circulant, out=source[:square].reshape(-1, b * b))
    coupling = np.multiply(value.take(form.coupling), math.sqrt(K), out=source[square:fixed])
    value.take(form.fixed, out=source[fixed:-2], mode="clip")
    dmax = float(source.take(form.diagonal).max())
    source[-1] = dmax
    blocks = source.take(form.layout, out=form.blocks, mode="clip")
    rho = TWIDDLE_ERROR + _gamma(K) * (1.0 + TWIDDLE_ERROR)
    size = float(np.max([np.abs(circulant, out=circulant).sum(axis=0).max(),
                         np.abs(coupling).max(initial=0.0)]))
    extra = asym + blocks.shape[1] * rho * size * (1.0 + _gamma(K + 4))
    return blocks, extra, dmax


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
      products subtracted one by one.  The arrow form
      (:meth:`BorderedGram.arrow`) takes its one level the same way, but
      forms fl(E - s I) of its dense block first and then subtracts from
      each entry the sum of the products of its multipliers, accumulated
      by BLAS: fl(b_rs - fl(sum_i l_ri l_si)) is another order of
      evaluation of the same expression, which the backward error allows.
      LAPACK then factors the block left,
      which completes the floating-point Cholesky factorisation of P B P^T
      in one order of evaluation, P taking the level's rows first.  A pivot
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

    Mode blocks.  Where ``A`` carries them (``A.modes``, a pattern's Gram
    matrix under a :class:`RowSymmetry` whose mode path is taken), they are
    tried first (:func:`_modes_certify`).  With A_sym the symmetrised
    block circulant of :func:`_mode_blocks`, e_bar and delta_bar its bounds
    on the asymmetry and on the DFT's rounding, B_l the K / 2 + 1 blocks,
    each of k' rows, and d_max their largest diagonal entry:

    - Weyl: lambda_min(A) >= lambda_min(A_sym) - e_bar, since D A D, D the
      hint's signs, has A's eigenvalues and ||D A D - A_sym||_2 <= e_bar.
    - The real DFT over the orbits is orthogonal, so lambda_min(A_sym) is
      the smallest eigenvalue of the exact blocks, and, by Weyl again, at
      least min_l lambda_min(B_l) - delta_bar.
    - Rump, block by block: if the batched Cholesky of fl(B_l - s I)
      completes, lambda_min(B_l) > s (1 - u) - c' - u d_max, with c' =
      gamma_{k'+1} / (1 - gamma_{k'+1}) k' d_max plus 4 k' (2 (k' + 2) +
      d_max) eta, since trace fl(B_l - s I) <= k' d_max.

    So lambda_min(W W^T) > s (1 - u) - c' - u d_max - e_bar - delta_bar -
    gamma_q sigma_bar^2 - k q eta, and the shift

        s = (t^2 + gamma_q sigma_bar^2 + k q eta + c' + u d_max + e_bar
             + delta_bar) * (1 + gamma_64)

    makes that at least t^2, with the same tau_bar.  Where the mode blocks
    fail, the factorisation above decides.
    """
    if not isinstance(A, BorderedGram):
        A = BorderedGram.dense(A)
    diag = A.diagonal
    sigma2, tau = _sigma_bound(diag, shape, policy)
    t = max(tau, floor)
    if A.modes is not None and _modes_certify(A.modes(), t, sigma2, shape):
        return tau
    k = min(shape)
    dmax = float(diag.max())
    s = _shift(t, sigma2, shape, k, dmax, sigma2)
    if not math.isfinite(s):
        return None
    try:
        np.linalg.cholesky(A.trailing(s))
    except np.linalg.LinAlgError:
        return None
    return tau


def _shift(t, sigma2, shape, k, dmax, trace, extra=0.0):
    """The shift s of :func:`_full_rank_certificate` for a Cholesky
    factorisation of blocks of at most k rows whose diagonal entries are at
    most ``dmax`` and whose traces are at most ``trace``, with ``extra``
    added to the bounds."""
    q = max(shape)
    g = _gamma(k + 1)
    c = g / (1.0 - g) * trace + (4.0 * k * (2.0 * (k + 2) + dmax) + 1.0) * SMALLEST_SUBNORMAL
    s = (t * t + _gamma(q) * sigma2 + min(shape) * q * SMALLEST_SUBNORMAL + c
         + UNIT_ROUNDOFF * dmax + extra)
    return s * (1.0 + _gamma(64))


def _modes_certify(modes, t, sigma2, shape):
    """Whether the mode blocks (blocks, extra, dmax) of :func:`_mode_blocks`
    certify lambda_min(W W^t) > t^2: one batched LAPACK Cholesky of the
    blocks at the shift of :func:`_shift`, with k the blocks' size, k dmax
    bounding their traces and ``extra`` the asymmetry and DFT bounds."""
    blocks, extra, dmax = modes
    k = blocks.shape[1]
    s = _shift(t, sigma2, shape, k, dmax, k * dmax, extra)
    if not (math.isfinite(s) and dmax > 0.0):
        return False
    blocks.reshape(len(blocks), -1)[:, ::k + 1] -= s
    try:
        np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        return False
    return True


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
