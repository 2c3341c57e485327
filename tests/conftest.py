import numpy as np
import pytest

from suborbit import build_setup, estimate_generic_dims


@pytest.fixture
def svd_calls(monkeypatch):
    """Input shapes of the ``np.linalg.svd`` calls made while the test runs;
    suborbit.linalg and suborbit.lie look the function up at call time."""
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.fixture(scope="session")
def setup_112():
    return build_setup((1, 1, 2), (1.0, 2.0, 3.0))


@pytest.fixture(scope="session")
def setup_111():
    return build_setup((1, 1, 1), (1.0, 2.0, 3.0))


@pytest.fixture(scope="session")
def setup_114():
    return build_setup((1, 1, 4), (1.0, 2.0, 3.0))


@pytest.fixture(scope="session")
def dims_112(setup_112):
    return {
        "m": estimate_generic_dims(setup_112, "m", 25, seed=3),
        "m_tilde": estimate_generic_dims(setup_112, "m_tilde", 25, seed=3),
    }


@pytest.fixture(scope="session")
def dims_114(setup_114):
    return {
        "m": estimate_generic_dims(setup_114, "m", 25, seed=3),
        "m_tilde": estimate_generic_dims(setup_114, "m_tilde", 25, seed=3),
    }
