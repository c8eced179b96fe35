import functools

import pytest

from symmoment import hecke


@functools.cache
def _table(N):
    return hecke.eigenform_qexp(12, N)


@pytest.fixture(scope="session")
def table():
    """table(N): the weight-12 table to N, built once per session; the
    sieve and the partial sum run to the limit of the table they get."""
    return _table


@pytest.fixture(scope="session")
def delta_1e4():
    return _table(10_000)


@pytest.fixture(scope="session")
def delta_1e5():
    return _table(100_000)


@pytest.fixture(scope="session")
def delta_1e6():
    # the largest shared table; only the sym^2 divisor-identity checks need it
    return _table(1_000_000)
