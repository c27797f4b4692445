import numpy as np
import pytest

from indexbound import hypersurface as hyp
from indexbound.ambient import (
    ComplexProjectiveVeroneseModel,
    RealProjectiveModel,
    SphereModel,
)


@pytest.fixture(scope="session")
def torus48():
    return hyp.clifford_torus(SphereModel(3), 48)


@pytest.fixture(scope="session")
def torus96():
    return hyp.clifford_torus(SphereModel(3), 96)


@pytest.fixture(scope="session")
def equator2():
    return hyp.equator_in_sphere(SphereModel(3), 25)


@pytest.fixture(scope="session")
def torus_projective():
    return hyp.clifford_torus(RealProjectiveModel(3), 32)


@pytest.fixture(scope="session")
def geodesic_cp2():
    return hyp.geodesic_sphere_cp2(ComplexProjectiveVeroneseModel(2), 16)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
