import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from legarray import LegendreParams, build_family, legendre_array
from legarray.fields import Poly


@pytest.fixture(scope="session")
def params_3_2():
    return LegendreParams(p=3, n=2, a=0, poly=Poly.parse("2,2,1", 3))


@pytest.fixture(scope="session")
def family_3_2(params_3_2):
    return build_family(legendre_array(params_3_2), params_3_2)


@pytest.fixture(scope="session")
def family_5_2():
    params = LegendreParams(p=5, n=2, a=0)
    return build_family(legendre_array(params), params)
