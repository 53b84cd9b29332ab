import importlib
import pkgutil

import numpy as np
import pytest
from scipy.stats import ortho_group

import fpeps
from fpeps.gaussian import GaussianChannel

VACUUM_CM = np.array([[0.0, 1.0], [-1.0, 0.0]])


def package_caches() -> dict:
    """Every functools cache defined in an ``fpeps`` module, by dotted name.

    A cache is a module attribute with ``cache_clear``; one imported from
    another module is listed under the module that defines it.
    """
    caches = {}
    for info in pkgutil.iter_modules(fpeps.__path__):
        if info.name == "__main__":  # runs the command line on import
            continue
        module = importlib.import_module(f"fpeps.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                caches[f"{module.__name__}.{name}"] = value
    return caches


@pytest.fixture
def cold_caches():
    """Every fpeps cache empty, and emptied again afterwards."""
    caches = package_caches().values()
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture
def vacuum_channel():
    """B = 0 channel with one input mode; output is the single-mode vacuum."""
    return GaussianChannel(
        VACUUM_CM.copy(), np.zeros((2, 2)), np.array([[0.0, 1.0], [-1.0, 0.0]])
    )


@pytest.fixture
def vacuum_site_channel():
    """B = 0 one-site channel (4 virtual modes); output is the vacuum."""
    D = np.block([
        [np.zeros((4, 4)), np.eye(4)],
        [-np.eye(4), np.zeros((4, 4))],
    ])
    return GaussianChannel(VACUUM_CM.copy(), np.zeros((2, 8)), D)


@pytest.fixture
def random_site_channel():
    """Pure one-site channel G = O J O^T of a seed, split into A (2x2), B and D (8x8)."""
    def make(seed):
        O = ortho_group.rvs(10, random_state=seed)
        J = np.kron(np.eye(5), [[0.0, 1.0], [-1.0, 0.0]])
        G = O @ J @ O.T
        return GaussianChannel(G[:2, :2], G[:2, 2:], G[2:, 2:])

    return make


@pytest.fixture
def zero_norm_momenta_4x4():
    """Zeros of 16 (1 - sin phi1 sin phi2) cos^2(phi1/2) cos^2(phi2/2) on the
    4x4 torus, in ``lattice.momenta()`` order (phi2 outer, phi1 inner)."""
    h = np.pi / 2
    return [
        (2 * h, 0.0),
        (h, h), (2 * h, h),
        (0.0, 2 * h), (h, 2 * h), (2 * h, 2 * h), (3 * h, 2 * h),
        (2 * h, 3 * h), (3 * h, 3 * h),
    ]
