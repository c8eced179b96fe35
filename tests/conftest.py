import pytest

from symmoment import hecke


@pytest.fixture(scope="session")
def delta_1e4():
    return hecke.eigenform_qexp(12, 10_000)


@pytest.fixture(scope="session")
def delta_1e5():
    return hecke.eigenform_qexp(12, 100_000)


@pytest.fixture(scope="session")
def delta_1e6():
    # the largest shared table; only the sym^2 divisor-identity checks need it
    return hecke.eigenform_qexp(12, 1_000_000)
