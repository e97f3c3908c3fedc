import numpy as np
import pytest

from kahlercheck import expr as ex
from kahlercheck import models


def evaluate(e, assignment):
    """The value of the tree ``e`` at ``assignment``, on a tape of its own."""
    return (dag := ex.Dag()).lower([dag.intern_id(e)]).run(assignment)[0]


@pytest.fixture(scope="session")
def flat2():
    return models.build_model("builtin:flat:2")


@pytest.fixture(scope="session")
def flat3():
    return models.build_model("builtin:flat:3")


@pytest.fixture(scope="session")
def fs2():
    return models.build_model("builtin:fs:2")


@pytest.fixture(scope="session")
def fs3():
    return models.build_model("builtin:fs:3")


@pytest.fixture(scope="session")
def chyp2():
    return models.build_model("builtin:chyp:2")


@pytest.fixture(scope="session")
def chyp3():
    return models.build_model("builtin:chyp:3")


@pytest.fixture(scope="session")
def product():
    return models.build_model("builtin:product:fs:1:fs:2")


# Holomorphic pullback of the flat metric of C^2 by
# F(z) = (z1 + 0.3 z1^2 + 0.1 z2^3, z2 + 0.2 z1 z2): every curvature component
# vanishes, but only because two O(1) terms of R cancel.
FLAT_PULLBACK_SPEC = """dimension = 2
potential = "(z1 + 0.3*z1^2 + 0.1*z2^3)*(zb1 + 0.3*zb1^2 + 0.1*zb2^3) + (z2 + 0.2*z1*z2)*(zb2 + 0.2*zb1*zb2)"
domain = ball 0.5
"""


@pytest.fixture()
def flat_pullback_path(tmp_path):
    path = tmp_path / "flat-pullback.manifold"
    path.write_text(FLAT_PULLBACK_SPEC)
    return str(path)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
