"""Hot numeric kernels, in numpy.

The support sum h(x) = sum_k max(0, max_i B[k,i] x_i) of an atom list B
takes two algorithms: in the plane, one sort of the atoms by slope and
two cumulative sums answer every point in O((n + m) log m); for d >= 3
a dense product over (chunk, m, d) blocks costs O(n m d).

Randomness never lives in the kernels: callers draw with numpy
Generators so that results are reproducible.
"""

import numpy as np

# Rows per block in the dense kernels; keeps (chunk, m, d) temporaries
# around tens of MB for typical atom counts.
_CHUNK = 4096


def support_sum(scaled_atoms, points):
    """h(x) = sum_k max(0, max_i B[k,i]*x[i]) for each row x of points."""
    if scaled_atoms.shape[1] == 2:
        return _support_sum_planar(scaled_atoms, points)
    n = points.shape[0]
    out = np.empty(n)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        prod = points[lo:hi, None, :] * scaled_atoms[None, :, :]
        out[lo:hi] = np.maximum(prod.max(axis=2), 0.0).sum(axis=1)
    return out


def _support_sum_planar(B, points):
    """Atom k contributes B[k,0] x_1 exactly when its slope B[k,0]/B[k,1]
    is at least x_2/x_1, so with the atoms in slope order h is x_1 times a
    suffix sum of B[:,0] plus x_2 times a prefix sum of B[:,1], both read
    at the sorted position of x_2/x_1."""
    X = np.maximum(points, 0.0)  # exact: B >= 0, so max(0, B x) = max(B x_+)
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


def simulate_frechet(weight_matrix, uniforms):
    """xi[n,j] = max_k zeta[n,k] * weight_matrix[k,j] with unit-Frechet
    zeta = -1/log(u) computed from uniforms in (0, 1)."""
    n = uniforms.shape[0]
    d = weight_matrix.shape[1]
    out = np.empty((n, d))
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        z = -1.0 / np.log(np.maximum(uniforms[lo:hi], 1e-300))
        # one (chunk, m) product per coordinate, not a (chunk, m, d) block
        for j in range(d):
            out[lo:hi, j] = (z * weight_matrix[:, j]).max(axis=1)
    return out


def backend_name():
    return "numpy"
