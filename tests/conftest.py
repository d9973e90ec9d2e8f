import numpy as np
import pytest


@pytest.fixture
def grid256():
    from acsflow.geometry import AngularGrid

    return AngularGrid(256)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
