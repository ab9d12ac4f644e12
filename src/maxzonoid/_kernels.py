"""Hot numeric kernels, in numpy.

The support sum h(x) = sum_k max(0, max_i B[k,i] x_i) of an atom list B
takes two algorithms: in the plane, one sort of the atoms by slope and
two cumulative sums answer every point in O((n + m) log m); for d >= 3
a running maximum of one outer product per coordinate fills cache-sized
(rows, m) tiles in O(n m d), and builds the NNLS design matrix too.
"""

import numpy as np

# Elements in one (rows, m) tile of the d >= 3 support sum: 512 KB of
# float64, which stays in cache while the coordinates are folded in.
_TILE = 2**16


def max_products(B, X):
    """M[j, k] = max_i X[j, i] * B[k, i], one outer product per coordinate;
    equal bit for bit to (X[:, None] * B[None]).max(2), as max is exact."""
    M = np.multiply.outer(X[:, 0], B[:, 0])
    for i in range(1, B.shape[1]):
        np.maximum(M, np.multiply.outer(X[:, i], B[:, i]), out=M)
    return M


def support_sum(scaled_atoms, points):
    """h(x) = sum_k max(0, max_i B[k,i]*x[i]) for each row x of points."""
    X = np.maximum(points, 0.0)  # exact: B >= 0, so max(0, B x) = max(B x_+)
    if scaled_atoms.shape[1] == 2:
        return _support_sum_planar(scaled_atoms, X)
    rows = max(1, _TILE // scaled_atoms.shape[0])
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], rows):
        out[lo : lo + rows] = max_products(scaled_atoms, X[lo : lo + rows]).sum(axis=1)
    return out


def _support_sum_planar(B, X):
    """Atom k contributes B[k,0] x_1 exactly when its slope B[k,0]/B[k,1]
    is at least x_2/x_1, so with the atoms in slope order h is x_1 times a
    suffix sum of B[:,0] plus x_2 times a prefix sum of B[:,1], both read
    at the sorted position of x_2/x_1, for points X >= 0."""
    m, n = B.shape[0], X.shape[0]
    r = np.divide(B[:, 0], B[:, 1], out=np.full(m, np.inf), where=B[:, 1] > 0)
    order = np.argsort(r, kind="stable")
    r, a1, a2 = r[order], B[order, 0], B[order, 1]
    # a reversed cumsum, not total minus prefix: no cancellation
    s1 = np.append(np.cumsum(a1[::-1])[::-1], 0.0)
    p2 = np.concatenate([[0.0], np.cumsum(a2)])
    t = np.divide(X[:, 1], X[:, 0], out=np.full(n, np.inf), where=X[:, 0] > 0)
    j = np.searchsorted(r, t, "left")
    return X[:, 0] * s1[j] + X[:, 1] * p2[j]


def backend_name():
    return "numpy"
