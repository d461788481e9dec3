import numpy as np
import pytest
from hypothesis import settings

from soliton_forge import SolitonSpec, make_builtin_warp, warp_from_json

# tier-1 draws the same examples on every run; the random search runs in a
# separate step with the pytest option --hypothesis-profile search
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("search", derandomize=False)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def euclidean_warp():
    return make_builtin_warp("rotational", 0.0)


@pytest.fixture(scope="session")
def hyperbolic_warp():
    return make_builtin_warp("rotational", -1.0)


@pytest.fixture(scope="session")
def hyperbolic_table_warp(hyperbolic_warp):
    """Hermite table of the K = -1 rotational warp on [0, 5]."""
    rows = [{"r": float(x), "xi": float(hyperbolic_warp.xi(x)),
             "dxi": float(hyperbolic_warp.dxi(x)),
             "ddxi": float(hyperbolic_warp.ddxi(x))}
            for x in np.linspace(0.0, 5.0, 51)]
    return warp_from_json({"kind": "rotational", "table": rows})


@pytest.fixture(scope="session")
def busemann_warp():
    return make_builtin_warp("busemann", -1.0)


@pytest.fixture(scope="session")
def equidistant_warp():
    return make_builtin_warp("equidistant", -1.0)


@pytest.fixture(scope="session")
def hyperbolic_bowl_spec(hyperbolic_warp):
    return SolitonSpec(c=1.0, n=2, family="bowl", warp=hyperbolic_warp)


@pytest.fixture(scope="session")
def euclidean_bowl_spec(euclidean_warp):
    return SolitonSpec(c=1.0, n=2, family="bowl", warp=euclidean_warp)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
