import numpy as np
import pytest

from equnfold import d3
from equnfold.jsonio import build_artifact


@pytest.fixture(scope="session")
def simple_point():
    return d3.default_point("simple")


@pytest.fixture(scope="session")
def double_point():
    return d3.default_point("double")


@pytest.fixture(scope="session")
def simple_case(simple_point):
    return d3.run_case("simple", simple_point)


@pytest.fixture(scope="session")
def double_case(double_point):
    return d3.run_case("double", double_point)


@pytest.fixture(scope="session")
def simple_artifact(simple_case):
    return build_artifact(*simple_case, meta={"preset": "d3:simple"})


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def same_bits(a, b):
    """Whether two complex arrays have the same shape and the same bits."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
