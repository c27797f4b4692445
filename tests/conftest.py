import numpy as np
import pytest

from indexbound import hypersurface as hyp
from indexbound.ambient import make_ambient


@pytest.fixture(scope="session")
def torus48():
    return hyp.clifford_torus(48)


@pytest.fixture(scope="session")
def torus96():
    return hyp.clifford_torus(96)


@pytest.fixture(scope="session")
def equator2():
    return hyp.equator_in_sphere(2, 25)


@pytest.fixture(scope="session")
def torus_projective():
    return hyp.clifford_torus(32, make_ambient("real_projective", dim=3))


@pytest.fixture(scope="session")
def geodesic_cp2():
    return hyp.geodesic_sphere_cp2(16)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
