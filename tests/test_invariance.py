"""Changes of the potential that keep its metric keep every sampled value.

The chart is the product CP^1(2) x CP^2(4) written as a spec, which is not
U(3)-symmetric and fails six of the seven manifold checks at O(1), so each
residual compared below is a sizeable number, not round-off.
"""

import numpy as np
import pytest

from kahlercheck import cli, models

PRODUCT = "log(1 + z1*zb1) + 0.5*log(1 + z2*zb2 + z3*zb3)"
# w = U z on the second factor, U a real rotation; |w2|^2 + |w3|^2 = |z2|^2 + |z3|^2.
W2, W3 = "(0.6*z2 - 0.8*z3)", "(0.8*z2 + 0.6*z3)"
WB2, WB3 = "(0.6*zb2 - 0.8*zb3)", "(0.8*zb2 + 0.6*zb3)"


@pytest.fixture(scope="module")
def residuals(tmp_path_factory):
    """Every sampled value of every manifold check, by check name, for a
    potential: the array ``cli._run_loaded`` reduces to the check's report."""
    folder = tmp_path_factory.mktemp("charts")

    def run(potential: str) -> dict[str, np.ndarray]:
        path = folder / "chart.manifold"
        path.write_text(f'dimension = 3\npotential = "{potential}"\ndomain = ball 0.8\n')
        reports, _ = cli.run_suite(str(path), seed=7, points=2, samples=40)
        assert [r.check for r in reports] == list(cli.MANIFOLD_CHECKS)
        manifold = models.load_manifold(str(path))
        configs = [cli.RunConfig(str(path), r.check, points=2, samples=40, seed=7) for r in reports]
        return {cfg.check: cli._run_loaded(cfg, manifold)[1] for cfg in configs}

    return run


def test_a_pluriharmonic_term_leaves_every_residual_bit_equal(residuals):
    # K + 2 Re h for holomorphic h has the same i ddbar K: the terms fold away.
    gauged = PRODUCT + " + 3*z1*z2 + 3*zb1*zb2 + exp(z3) + exp(zb3)"
    base, moved = residuals(PRODUCT), residuals(gauged)
    assert list(moved) == list(base)
    for name in base:
        assert np.array_equal(moved[name], base[name]), name


def test_a_unitary_change_of_coordinates_leaves_every_residual(residuals):
    rotated = f"log(1 + z1*zb1) + 0.5*log(1 + {W2}*{WB2} + {W3}*{WB3})"
    base, turned = residuals(PRODUCT), residuals(rotated)
    # reconstruct-2-3 holds on every chart, so its values are round-off
    # (about 1e-15): atol keeps them from being compared relative to themselves.
    np.testing.assert_allclose(
        np.concatenate([turned[n] for n in base]), np.concatenate(list(base.values())), rtol=1e-12, atol=1e-14
    )


def test_a_term_that_changes_the_metric_moves_every_residual(residuals):
    # The control for the two relations above: the comparison can fail.
    base, moved = residuals(PRODUCT), residuals(PRODUCT + " + 0.1*z1*zb1*z2*zb2")
    for name in cli.MANIFOLD_CHECKS:
        if name != "reconstruct-2-3":
            assert np.max(np.abs(moved[name] - base[name])) > 1e-2 * np.max(np.abs(base[name])), name
