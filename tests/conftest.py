import numpy as np
import pytest

from tidict import (
    GaussianIsotropicKernel,
    LowRankDictionary,
    NodeGrid,
    build_gram,
)


@pytest.fixture(scope="session")
def gauss1():
    return GaussianIsotropicKernel(sigma=1.0, dim=1)


@pytest.fixture(scope="session")
def gauss2():
    return GaussianIsotropicKernel(sigma=1.0, dim=2)


@pytest.fixture(scope="session")
def grid6():
    return NodeGrid(origin=[0.0], spacing=[1.0], counts=[6])


@pytest.fixture(scope="session")
def grid23():
    return NodeGrid(origin=[0.0, 0.0], spacing=[1.0, 1.0], counts=[2, 3])


@pytest.fixture(scope="session")
def ld6(gauss1, grid6):
    return LowRankDictionary(gauss1, build_gram(gauss1, grid6))


@pytest.fixture(scope="session")
def ld23(gauss2, grid23):
    return LowRankDictionary(gauss2, build_gram(gauss2, grid23))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
