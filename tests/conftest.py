import os

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
def unit_pair():
    """H0 = S diag(0.5, 1, 2, -1.5) S^-1 and its metric E0 = S^-dag S^-1, each at unit
    Frobenius norm, for a complex Gaussian S: an invertible H with four real eigenvalues."""
    rng = np.random.default_rng(0)
    S = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    S_inv = np.linalg.inv(S)
    H = S @ np.diag([0.5, 1.0, 2.0, -1.5]) @ S_inv
    eta = S_inv.conj().T @ S_inv
    eta = (eta + eta.conj().T) / 2.0
    return H / np.linalg.norm(H), eta / np.linalg.norm(eta)


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


def _unknown_name(name):
    raise ValueError("unrecognized configuration name")


def _failed_call(name):
    raise OSError(22, "Invalid argument")


# os.sysconf where the physical memory is not known: an indeterminate page count or page size
# (-1), a count of 0, a name the platform does not define, a call that fails
_NO_MEMORY_FIGURE = {
    "pages-indeterminate": {"SC_PHYS_PAGES": -1, "SC_PAGE_SIZE": 4096}.__getitem__,
    "page-size-indeterminate": {"SC_PHYS_PAGES": 2 ** 20, "SC_PAGE_SIZE": -1}.__getitem__,
    "both-indeterminate": {"SC_PHYS_PAGES": -1, "SC_PAGE_SIZE": -1}.__getitem__,
    "no-pages": {"SC_PHYS_PAGES": 0, "SC_PAGE_SIZE": 4096}.__getitem__,
    "unknown-name": _unknown_name,
    "failed-call": _failed_call,
}


@pytest.fixture(params=sorted(_NO_MEMORY_FIGURE))
def no_memory_figure(request, monkeypatch):
    """os.sysconf replaced by one that gives no physical memory figure: no bound applies."""
    monkeypatch.setattr(os, "sysconf", _NO_MEMORY_FIGURE[request.param])
