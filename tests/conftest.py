import pytest

from tipwave import Grid, SystemParams


@pytest.fixture(scope="session")
def params():
    """Gains of the reference experiment: m=5, alpha=a=2, beta=gamma=1.5."""
    return SystemParams()


@pytest.fixture
def grid():
    return Grid(n_cells=100, r=0.5)
