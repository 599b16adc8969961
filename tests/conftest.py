import numpy as np
import pytest
from hypothesis import settings

from torsiongeo.scenarios import CATALOG, run_scenario
from torsiongeo.suite import SuiteContext

# One profile for every property test: no per-example deadline, since an
# example may compile a module or integrate a trace, and the blob that
# reproduces a failing example printed with it.  Each test keeps its own
# max_examples.
settings.register_profile("torsiongeo", deadline=None, print_blob=True)
settings.load_profile("torsiongeo")


@pytest.fixture(scope="session")
def suite_ctx():
    """Shared trace cache for the acceptance criteria."""
    return SuiteContext(seed=0)


@pytest.fixture(scope="session")
def winding_trace():
    """Winding-field geodesic through the origin over |t| <= 10."""
    return run_scenario(CATALOG["plane-winding-center"], span=(-10.0, 10.0))


@pytest.fixture(scope="session")
def shear_trace():
    """Shear-field geodesic from (1, 1) with diagonal launch, |t| <= 20."""
    return run_scenario(CATALOG["plane-shear-diagonal"])


@pytest.fixture
def rng():
    return np.random.default_rng(42)
