"""Backend equivalence: the numba kernels and the pure-numpy fallbacks
must compute the same values."""

import subprocess
import sys

import numpy as np
import pytest

from maxzonoid import _kernels


@pytest.fixture
def data(rng):
    atoms = rng.random((37, 3)) * rng.random((37, 1))
    points = rng.random((211, 3)) * 3.0
    uniforms = rng.random((101, 37))
    return atoms, points, uniforms


def test_support_sum_matches_fallback(data):
    atoms, points, _ = data
    a = _kernels.support_sum(atoms, points)
    b = _kernels.support_sum_numpy(atoms, points)
    np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-15)


def test_support_sum_zero_floor(data):
    atoms, _, _ = data
    mixed = np.array([[-1.0, -2.0, -0.5], [0.5, -1.0, 0.25]])
    a = _kernels.support_sum(atoms, mixed)
    b = _kernels.support_sum_numpy(atoms, mixed)
    np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-15)
    assert np.all(a >= 0)


def test_simulate_frechet_matches_fallback(data):
    atoms, _, uniforms = data
    A = atoms / atoms.sum(axis=0)
    a = _kernels.simulate_frechet(A, uniforms)
    b = _kernels.simulate_frechet_numpy(A, uniforms)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


def test_simulate_frechet_numpy_matches_definition(data):
    atoms, _, uniforms = data
    A = atoms / atoms.sum(axis=0)
    z = -1.0 / np.log(uniforms)
    expected = (z[:, :, None] * A[None, :, :]).max(axis=1)
    assert np.array_equal(_kernels.simulate_frechet_numpy(A, uniforms), expected)


def test_env_flag_forces_numpy_backend():
    code = (
        "import os; os.environ['MAXZONOID_NO_NUMBA']='1'; "
        "from maxzonoid import _kernels; "
        "assert not _kernels.HAS_NUMBA; "
        "assert _kernels.backend_name() == 'numpy'; "
        "assert _kernels.support_sum is _kernels.support_sum_numpy"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_simulation_identical_across_backends(tmp_path):
    """Same seed, either backend: byte-identical samples."""
    code = (
        "import numpy as np, maxzonoid as mz; "
        "m = mz.MaxStableModel(mz.make_family('marshall_olkin', 2, alpha1=0.4, alpha2=0.7)); "
        "np.save({path!r}, mz.simulate(m, 500, seed=99).values)"
    )
    paths = []
    for tag, env in (("jit", {}), ("np", {"MAXZONOID_NO_NUMBA": "1"})):
        path = str(tmp_path / f"{tag}.npy")
        paths.append(path)
        import os

        subprocess.run(
            [sys.executable, "-c", code.format(path=path)],
            check=True,
            env={**os.environ, **env},
        )
    a, b = np.load(paths[0]), np.load(paths[1])
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
