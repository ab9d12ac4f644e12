"""Hot numeric kernels, in numpy.

The support sum h(x) = sum_k max(0, max_i B[k,i] x_i) of an atom list B
takes three algorithms.  In the plane, planar_chain sorts the atoms by
slope once per measure, in O(m log m), and a walk from each point's slope
bucket finds its chain vertex in O(1) expected, O(log m) at worst; the same
bucket lookup picks the sampler's atoms from their cumulative weights
(distribution.simulate).  In d = 3,
when many points meet many atoms, each atom is assigned the coordinate
that wins at x by a fixed decision tree on three slopes, which makes h
four weighted 2-D dominance sums (Bentley 1980); one (b+1)^2 table per
sum and block of b atoms answers every point in O(m b + n (m/b) log b).
The block is sized to the batch, b ~ sqrt(8 n) up to 512, which balances
a block's table cells against its point reads, so n points cost
O(m sqrt n).  Otherwise, and for d >= 4, a running maximum of
one outer product per coordinate fills cache-sized (rows, m) tiles in
O(n m d), summed along the rows; the NNLS design of an exchangeable body
adds such products of one atom per permutation orbit at a time
(families._fit_nnls).
Bodies of fewer than 8 atoms in d >= 3 fold the point columns instead,
each atom a running max over its B[k,i] > 0 only, in nnz(B) products per
point, not m d.  numpy adds fewer than 8 terms of a row in order, as the
fold adds its atoms, and longer rows pairwise, as the (rows, m) tiles do.
So the values equal the dense definition bit for bit on both paths; within
a few ulps on the d = 3 table path (at most 1.5e-15 relative on the NNLS
fits measured; a value sums at most b nonnegative terms in a table and
4 ceil(m/b) table reads, so the worst case is of order (b + 4 m/b) eps).
"""

import math
from collections import namedtuple

import numpy as np

# Elements in one tile of the dense path: 512 KB of float64, which stays
# in cache while the coordinates are folded in.
_TILE = 2**16
_FEW = 8  # bodies of fewer atoms fold the point columns
_WALK = 1  # steps of the bucket walk before a query is searched
# Most atoms per block of the d = 3 table path: a table of at most 513^2
# float64 (2.1 MB) is built at a time.
_BLOCK = 512
# Coordinate pairs (i, j) whose slopes the d = 3 decision tree compares:
# i beats j at x when x_i/x_j >= B[k,j]/B[k,i].
_PAIRS = ((0, 1), (0, 2), (1, 2))
# The tree's four leaves: (weight column, (pair, i wins), (pair, i wins)).
# Coordinate 1 or 2 wins the first test, then meets coordinate 3.
_LEAVES = (
    (0, (0, True), (1, True)),
    (2, (0, True), (1, False)),
    (1, (0, False), (2, True)),
    (2, (0, False), (2, False)),
)


def max_products(B, X):
    """M[j, k] = max_i X[j, i] * B[k, i], one outer product per coordinate,
    filled one cache-sized row tile at a time with one scratch tile; equal
    bit for bit to (X[:, None] * B[None]).max(2), as max is exact."""
    M = np.empty((X.shape[0], B.shape[0]))
    rows = max(1, _TILE // B.shape[0])
    T = np.empty((rows, B.shape[0]))
    for lo in range(0, len(M), rows):
        _max_products_into(B, X[lo : lo + rows], M[lo : lo + rows], T)
    return M


def _max_products_into(B, X, M, T):
    """M = max_products(B, X) in place, T a scratch tile of at least len(X) rows."""
    np.multiply.outer(X[:, 0], B[:, 0], out=M)
    for i in range(1, B.shape[1]):
        np.maximum(M, np.multiply.outer(X[:, i], B[:, i], out=T[: len(M)]), out=M)


def _fold(f, cols):
    """f(...f(c_0, c_1)..., c_k) left to right into a new array; for np.add the
    order in which numpy sums a row of fewer than 8 terms, so the same bits."""
    out = f(cols[0], cols[1]) if len(cols) > 1 else np.array(cols[0])
    for c in cols[2:]:
        f(out, c, out=out)
    return out


def support_sum(scaled_atoms, points):
    """h(x) = sum_k max(0, max_i B[k,i]*x[i]) for each row x of points.

    The points must be finite and nonnegative, X >= 0, as every caller
    checks first (geometry._support_finite).  The planar path reads them
    as given, so a row (-0.0, -0.0) reads -0.0; the d >= 3 paths clamp at
    0 in the copies of the points they make anyway."""
    m, d = scaled_atoms.shape
    if d > 2 and m < _FEW:
        return _support_sum_fold(scaled_atoms, points)
    if d == 2:
        return _support_sum_planar(scaled_atoms, points)
    if d == 3 and _tables_pay(m, points.shape[0]):
        return _support_sum_3d(scaled_atoms, np.maximum(points, 0.0))
    return _support_sum_dense(scaled_atoms, points)


def _support_sum_dense(B, points):
    """h by max_products on (rows, m) tiles, each summed along its rows.
    The clamped points (exact: B >= 0, so max(0, B x) = max(B x_+)) and
    both tiles share one block, as in _support_sum_fold: a fresh pair of
    tiles a tile gave about 1,300 page faults a 400,000-draw volume of 20
    atoms in d = 4, the block about 50.  The output stays apart, so that
    it does not hold the block."""
    (n, d), m = points.shape, B.shape[0]
    rows = max(1, min(n, _TILE // m))
    W = np.empty(n * d + 2 * rows * m)
    X = np.maximum(points, 0.0, out=W[: n * d].reshape(n, d))
    out = np.empty(n)
    M, T = W[n * d :].reshape(2, rows, m)
    for lo in range(0, n, rows):
        Xt = X[lo : lo + rows]
        _max_products_into(B, Xt, M[: len(Xt)], T)
        M[: len(Xt)].sum(1, out=out[lo : lo + rows])
    return out


def _support_sum_fold(B, points):
    """h for a few atoms B on one clamped column per coordinate: each
    atom's running max over its B[k,i] > 0 (a zero cannot raise a max of
    nonnegative terms; a 1.0 reads the column), added in atom order."""
    n, d = points.shape
    # columns and scratch rows in one block: as four arrays, glibc gave their
    # pages back between calls (about 4,000 faults a 400,000-draw volume)
    W = np.empty((d + 2, n))
    C, T, P = np.maximum(points.T, 0.0, out=W[:d]), W[d], W[d + 1]
    out = np.zeros(n)
    for row in B:
        t = None
        for i in np.flatnonzero(row > 0):
            c = C[i] if row[i] == 1.0 else np.multiply(C[i], row[i], out=P if t is not None else T)
            t = c if t is None else np.maximum(t, c, out=T)
        if t is not None:
            out += t
    return out


def _tables_pay(m, n):
    """Whether the d = 3 table path beats the tiled one on n points and m
    atoms.  In units of one point-atom pair of the tiled kernel, a block
    of b atoms costs about 8 per table cell and 25 per point: fit to
    timings of both paths for m = 64 to 3,000 and n = 16 to 20,000 on a
    2-core Xeon, where a pair costs about 3-6 ns.  With b = _block(m, n)
    a block costs about 89 n, so tables pay from about 1,000 points once
    m exceeds about 90 atoms, and from about 900 points at m = 64."""
    b = _block(m, n)
    return -(-m // b) * (8 * (b + 1) ** 2 + 25 * n) < m * n


def _block(m, n):
    """Atoms per block of the table path on n points: m split evenly into
    as few blocks as hold at most sqrt(8 n) atoms each (at least 1, at
    most _BLOCK), where a block's (b+1)^2 table cells cost about what
    its n point reads do."""
    size = min(_BLOCK, max(1, math.isqrt(8 * n)))
    return -(-m // -(-m // size))


def _slopes(num, den):
    """num / den, +inf where den is not positive (tiny divisors overflow to
    inf, which is the right slope to sort by)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = num / den
    out[~(den > 0)] = np.inf
    return out


def _support_sum_3d(B, X):
    """h in d = 3 for points X >= 0, blockwise over the atoms.  Atom k
    adds B[k,i] x_i for the coordinate i that a decision tree picks:
    1 against 2 by x_1/x_2 >= B[k,1]/B[k,0], then the winner against 3.
    Ranking the atoms by each of the three slopes makes every leaf a
    quadrant in the ranks of two slopes, read at the point's positions
    (searchsorted, "right"): a prefix where the pair's first coordinate
    wins, else a suffix.  Sibling leaves split on the same position, so
    each atom is counted once, ties and zeros included.  A leaf's table
    holds each atom's weight as a step along one rank, summed along the
    other: sums of at most b nonnegative terms, with no subtraction."""
    t = [_slopes(X[:, i], X[:, j]) for i, j in _PAIRS]
    out = np.zeros(X.shape[0])
    size = _block(B.shape[0], X.shape[0])
    for lo in range(0, B.shape[0], size):
        A = B[lo : lo + size]
        b = A.shape[0]
        order, rank, pos = [], [], []
        for (i, j), tk in zip(_PAIRS, t):
            r = _slopes(A[:, j], A[:, i])
            o = np.argsort(r, kind="stable")
            rk = np.empty(b, dtype=np.intp)
            rk[o] = np.arange(b)
            order.append(o)
            rank.append(rk)
            pos.append(np.searchsorted(r[o], tk, "right"))
        T = np.zeros((b + 1, b + 1))
        steps = np.arange(b + 1)
        for w, (ka, pa), (kb, pb) in _LEAVES:
            # row 1 + i: the i-th atom in the row quadrant's order, as a step
            # of its weight from the column where it enters the column quadrant
            rows = order[ka] if pa else order[ka][::-1]
            start = rank[kb][rows] + 1 if pb else b - rank[kb][rows]
            np.multiply(A[rows, w, None], steps >= start[:, None], out=T[1:])
            np.cumsum(T, axis=0, out=T)
            ra = pos[ka] if pa else b - pos[ka]
            rb = pos[kb] if pb else b - pos[kb]
            out += X[:, w] * T.ravel().take(ra * (b + 1) + rb)
    return out


class PlanarChain(namedtuple("PlanarChain", "r vx vy buckets")):
    shape = property(lambda self: (len(self.r) - 1, 2))  # its atoms', read by support_sum


def planar_chain(B):
    """The boundary chain of the planar body of atoms B, the one sort of planar
    atoms: slopes r = B[:,0]/B[:,1] stably sorted, then +inf, and vertices
    (vx[j], vy[j]), j = 0..m, x-axis to y-axis: vx[j] sums B[:,0] over sorted
    atoms j.. (a reversed cumsum, without cancellation), vy[j] B[:,1] over ..j-1,
    with the slopes' bucket_index."""
    r = _slopes(B[:, 0], B[:, 1])
    order = np.argsort(r, kind="stable")
    r = np.append(r[order], np.inf)  # a sentinel that ends every walk
    vx = np.append(np.cumsum(B[order[::-1], 0])[::-1], 0.0)
    vy = np.concatenate([[0.0], np.cumsum(B[order, 1])])
    buckets = bucket_index(r[:-1])
    for a in (r, vx, vy, buckets.first):
        a.setflags(write=False)
    return PlanarChain(r, vx, vy, buckets)


Buckets = namedtuple("Buckets", "first shift base")


def bucket_index(keys):
    """The bucket index of sorted keys >= 0 (Chen & Asau 1974, AIIE Trans.
    6:163-166).  A float >= 0 grows with its int64 bits: (bits >> shift) - base
    puts the finite positive keys in at most 16m buckets, bucket b from
    keys[first[b]], and 0 and +inf in the end buckets."""
    bits = keys.view(np.int64)
    fin = bits[(keys > 0.0) & (keys < np.inf)]
    lo, hi = (int(fin[0]), int(fin[-1])) if fin.size else (0, 0)
    shift = max(0, (hi - lo).bit_length() - (8 * len(bits)).bit_length())
    base, top = lo >> shift, (hi >> shift) - (lo >> shift) + 1
    count = np.bincount(np.clip(bits >> shift, base, base + top) - base, minlength=top + 1)
    return Buckets(np.cumsum(count) - count, shift, base)


def bucket_search(keys, buckets, q, side):
    """np.searchsorted(keys[:-1], q, side) for queries q >= 0, keys[:-1] sorted
    with their bucket_index and keys[-1] a sentinel above every query, so that
    no walk passes it: _WALK steps from q's bucket, then a search of the rest.
    Every key of an earlier bucket is below q, so the walk starts at or before
    the answer."""
    first, base = buckets.first, buckets.base
    b = q.view(np.int64) >> buckets.shift  # clamped in place: np.clip's wrapper costs more at 4,000 points
    np.minimum(np.maximum(b, base, out=b), base + len(first) - 1, out=b)
    b -= base
    j = first.take(b)
    before = np.less if side == "left" else np.less_equal
    for _ in range(_WALK):
        j += before(keys.take(j), q)
    late = before(keys.take(j), q)
    if late.any():
        j[late] = np.searchsorted(keys[:-1], q[late], side)
    return j


def _support_sum_planar(B, X):
    """h at points X >= 0, B atoms or their chain: x_1 vx[j] + x_2 vy[j] at the
    vertex j where x_2/x_1 falls among the slopes, as atoms j.. add B[k,0] x_1.
    The slopes' buffer takes the second product."""
    chain = B if isinstance(B, PlanarChain) else planar_chain(B)
    q = _slopes(X[:, 1], X[:, 0])
    j = bucket_search(chain.r, chain.buckets, q, "left")
    out = chain.vx.take(j)
    out *= X[:, 0]
    out += np.multiply(X[:, 1], chain.vy.take(j), out=q)
    return out


def backend_name():
    return "numpy"
