import os

import numpy as np
import pytest

from quncert import GridSpec, sorted_measure


def random_measure(rng, max_atoms: int = 20, span: float = 10.0,
                   min_atoms: int = 1):
    """Random measure with distinct atoms and strictly positive weights."""
    n = int(rng.integers(min_atoms, max_atoms + 1))
    atoms = np.unique(np.round(rng.uniform(-span, span, n), 6))
    weights = rng.uniform(0.1, 1.0, atoms.size)
    return sorted_measure(atoms, weights / weights.sum())


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture(scope="session")
def small_grid():
    return GridSpec.symmetric(16.0, 512)


@pytest.fixture(scope="session", autouse=True)
def _child_processes_import_src():
    """CLI tests start `python -m quncert.cli` in child processes; let them
    import the package from src/ as pytest's pythonpath setting does here."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    patch = pytest.MonkeyPatch()
    patch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")])))
    yield
    patch.undo()
