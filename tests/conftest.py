import numpy as np
import pytest

from pseudoherm import catalog_oscillator, catalog_two_point


@pytest.fixture
def osc2():
    """Oscillator pair with omega = 2: H = [[0,i],[-4i,0]], eta = [[0,i],[-i,0]]."""
    return catalog_oscillator(2.0)


@pytest.fixture
def two_point_xi():
    """Two-point pair with x = i, y = 1: H = [[i,1],[1,-i]], eta = [[0,1],[1,0]]."""
    return catalog_two_point(1j, 1.0)


@pytest.fixture
def nilpotent():
    """H = [[i,1],[1,-i]]: H^dag has eigenvalues {0, 0}, so plain chains degenerate."""
    H = np.array([[1j, 1.0], [1.0, -1j]])
    eta0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return H, eta0


@pytest.fixture
def svd_calls(monkeypatch):
    """The argument tuples of every np.linalg.svd call made during the test."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls
