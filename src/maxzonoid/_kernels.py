"""Hot numeric kernels, in numpy.

The support sum h(x) = sum_k max(0, max_i B[k,i] x_i) of an atom list B
takes three algorithms.  In the plane, planar_chain sorts the atoms by
slope once per measure, in O(m log m), and a walk from each point's slope
bucket finds its chain vertex in O(1) expected, O(log m) at worst.  In d = 3,
when many points meet many atoms, each atom is assigned the coordinate
that wins at x by a fixed decision tree on three slopes, which makes h
four weighted 2-D dominance sums (Bentley 1980); one (b+1)^2 table per
sum and block of b <= 512 atoms answers every point in
O(m b + n (m/b) log b).  Otherwise, and for d >= 4, a running maximum of
one outer product per coordinate fills cache-sized (rows, m) tiles in
O(n m d), summed along the rows; they fill the NNLS design matrix too.
Bodies of fewer than 8 atoms take (m, rows) tiles summed down the point
columns, as rows of 1-7 terms pay numpy's per-row overhead on every
point; numpy adds fewer than 8 terms of a row in order, as a column sum
runs, and longer rows pairwise.  So the values equal the dense definition
bit for bit on the dense path; within a few ulps on the d = 3 table path
(at most 1.5e-15 relative on the NNLS fits measured; a table entry sums
at most b nonnegative terms, so the worst case is of order b*eps =
5.7e-14).
"""

from collections import namedtuple

import numpy as np

# Elements in one tile of the dense path: 512 KB of float64, which stays
# in cache while the coordinates are folded in.
_TILE = 2**16
_FEW = 8  # bodies of fewer atoms take (m, rows) tiles
_WALK = 2  # steps of the planar bucket walk before a point is searched
# Atoms per block of the d = 3 table path: a table of at most 513^2
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
        Mt, Xt = M[lo : lo + rows], X[lo : lo + rows]
        np.multiply.outer(Xt[:, 0], B[:, 0], out=Mt)
        for i in range(1, B.shape[1]):
            np.maximum(Mt, np.multiply.outer(Xt[:, i], B[:, i], out=T[: len(Mt)]), out=Mt)
    return M


def support_sum(scaled_atoms, points):
    """h(x) = sum_k max(0, max_i B[k,i]*x[i]) for each row x of points."""
    X = np.maximum(points, 0.0)  # exact: B >= 0, so max(0, B x) = max(B x_+)
    m, d = scaled_atoms.shape
    if d == 2:
        return _support_sum_planar(scaled_atoms, X)
    if d == 3 and _tables_pay(m, X.shape[0]):
        return _support_sum_3d(scaled_atoms, X)
    rows = max(1, _TILE // m)
    out = np.empty(X.shape[0])
    B, few = scaled_atoms, m < _FEW
    for lo in range(0, X.shape[0], rows):
        Xt = X[lo : lo + rows]
        out[lo : lo + rows] = max_products(Xt, B).sum(0) if few else max_products(B, Xt).sum(1)
    return out


def _tables_pay(m, n):
    """Whether the d = 3 table path beats the tiled one on n points and m
    atoms.  In units of one point-atom pair of the tiled kernel, a block
    of b atoms costs about 5 per table cell and 64 per point: fit to
    timings of both paths for m = 48 to 3,000 and n = 2 m to 64 m on a
    2-core Xeon, where a pair costs about 3 ns.  So blocks of fewer than
    about 64 atoms never pay, and 512 atoms pay from about 6 m points."""
    b = _block(m)
    return -(-m // b) * (5 * (b + 1) ** 2 + 64 * n) < m * n


def _block(m):
    """Atoms per block of the table path: m split evenly into as few
    blocks as hold at most _BLOCK atoms each."""
    return -(-m // -(-m // _BLOCK))


def _slopes(num, den):
    """num / den, +inf where den is 0 (tiny divisors overflow to inf,
    which is the right slope to sort by)."""
    with np.errstate(over="ignore"):
        return np.divide(num, den, out=np.full(num.shape[0], np.inf), where=den > 0)


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
    size = _block(B.shape[0])
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


class PlanarChain(namedtuple("PlanarChain", "r vx vy first shift base")):
    shape = property(lambda self: (len(self.r) - 1, 2))  # its atoms', read by support_sum


def planar_chain(B):
    """The boundary chain of the planar body of atoms B, the one sort of planar
    atoms: slopes r = B[:,0]/B[:,1] stably sorted, then +inf, and vertices
    (vx[j], vy[j]), j = 0..m, x-axis to y-axis: vx[j] sums B[:,0] over sorted
    atoms j.. (a reversed cumsum, without cancellation), vy[j] B[:,1] over ..j-1.
    A float >= 0 grows with its int64 bits: (bits >> shift) - base puts the
    finite positive slopes in at most 8m buckets, bucket b from r[first[b]]."""
    r = _slopes(B[:, 0], B[:, 1])
    order = np.argsort(r, kind="stable")
    r = np.append(r[order], np.inf)  # a sentinel that ends every walk
    vx = np.append(np.cumsum(B[order[::-1], 0])[::-1], 0.0)
    vy = np.concatenate([[0.0], np.cumsum(B[order, 1])])
    bits = r[:-1].view(np.int64)
    fin = bits[(r[:-1] > 0.0) & (r[:-1] < np.inf)]
    lo, hi = (int(fin[0]), int(fin[-1])) if fin.size else (0, 0)
    shift = max(0, (hi - lo).bit_length() - (4 * len(bits)).bit_length())
    base, top = lo >> shift, (hi >> shift) - (lo >> shift) + 1  # 0 and +inf: the end buckets
    count = np.bincount(np.clip(bits >> shift, base, base + top) - base, minlength=top + 1)
    first = np.cumsum(count) - count
    for a in (r, vx, vy, first):
        a.setflags(write=False)
    return PlanarChain(r, vx, vy, first, shift, base)


def _chain_position(chain, q):
    """searchsorted(r, q, "left"): _WALK steps from q's bucket, then a search of the rest."""
    r, first, base = chain.r, chain.first, chain.base
    j = first[np.clip(q.view(np.int64) >> chain.shift, base, base + len(first) - 1) - base]
    for _ in range(_WALK):
        j += r[j] < q
    late = r[j] < q
    j[late] = np.searchsorted(r[:-1], q[late], "left")
    return j


def _support_sum_planar(B, X):
    """h at points X >= 0, B atoms or their chain: x_1 vx[j] + x_2 vy[j] at the
    vertex j where x_2/x_1 falls among the slopes, as atoms j.. add B[k,0] x_1."""
    chain = B if isinstance(B, PlanarChain) else planar_chain(B)
    j = _chain_position(chain, _slopes(X[:, 1], X[:, 0]))
    return X[:, 0] * chain.vx[j] + X[:, 1] * chain.vy[j]


def backend_name():
    return "numpy"
