"""Hot numeric kernels: numba-accelerated with a pure-numpy fallback.

The numba path is used by default when numba imports cleanly; set the
environment variable ``MAXZONOID_NO_NUMBA=1`` to force the numpy path
(useful on platforms where JIT compilation is unavailable or unwanted).
Both paths compute the same quantities.

Randomness never lives in the kernels: callers draw with numpy
Generators so that results are reproducible and backend-independent.
"""

import os

import numpy as np

_FORCE_NUMPY = os.environ.get("MAXZONOID_NO_NUMBA", "").strip().lower() in (
    "1", "true", "yes", "on",
)

try:
    if _FORCE_NUMPY:
        raise ImportError("numba disabled via MAXZONOID_NO_NUMBA")
    from numba import njit

    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False

# Rows per block in the numpy fallback; keeps (chunk, m, d) temporaries
# around tens of MB for typical atom counts.
_CHUNK = 4096


def support_sum_numpy(scaled_atoms, points):
    """h(x) = sum_k max(0, max_i B[k,i]*x[i]) for each row x of points."""
    n = points.shape[0]
    out = np.empty(n)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        prod = points[lo:hi, None, :] * scaled_atoms[None, :, :]
        out[lo:hi] = np.maximum(prod.max(axis=2), 0.0).sum(axis=1)
    return out


def simulate_frechet_numpy(weight_matrix, uniforms):
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


if HAS_NUMBA:

    @njit(cache=True)
    def _support_sum_numba(scaled_atoms, points):  # pragma: no cover - jitted
        n = points.shape[0]
        m, d = scaled_atoms.shape
        out = np.empty(n)
        for r in range(n):
            acc = 0.0
            for k in range(m):
                best = 0.0
                for i in range(d):
                    v = scaled_atoms[k, i] * points[r, i]
                    if v > best:
                        best = v
                acc += best
            out[r] = acc
        return out

    @njit(cache=True)
    def _simulate_frechet_numba(weight_matrix, uniforms):  # pragma: no cover - jitted
        n, m = uniforms.shape
        d = weight_matrix.shape[1]
        out = np.zeros((n, d))
        for r in range(n):
            for k in range(m):
                u = uniforms[r, k]
                if u < 1e-300:
                    u = 1e-300
                z = -1.0 / np.log(u)
                for j in range(d):
                    v = z * weight_matrix[k, j]
                    if v > out[r, j]:
                        out[r, j] = v
        return out

    def support_sum(scaled_atoms, points):
        return _support_sum_numba(
            np.ascontiguousarray(scaled_atoms), np.ascontiguousarray(points)
        )

    def simulate_frechet(weight_matrix, uniforms):
        return _simulate_frechet_numba(
            np.ascontiguousarray(weight_matrix), np.ascontiguousarray(uniforms)
        )

else:
    support_sum = support_sum_numpy
    simulate_frechet = simulate_frechet_numpy


def backend_name():
    return "numba" if HAS_NUMBA else "numpy"
