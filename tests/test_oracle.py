"""The finite-difference helpers and the real-coordinate curvature oracle."""

import math

import numpy as np

from kahlercheck import geometry as geo
from kahlercheck.oracle import (
    real_curvature_fd,
    real_metric_at,
    real_point,
    richardson_derivative,
    riemann_tensor_fd,
    wirtinger_fd,
)


def test_richardson_first_derivative():
    d = richardson_derivative(lambda t: np.array([math.sin(0.7 + t)]), 1e-4)
    assert abs(d[0] - math.cos(0.7)) < 1e-12


def test_wirtinger_fd_on_holomorphic_function():
    dz, dzb = wirtinger_fd(lambda w: w * w, 1.0 + 2.0j)
    assert abs(dz - 2 * (1.0 + 2.0j)) < 1e-8
    assert abs(dzb) < 1e-8


def test_wirtinger_fd_on_antiholomorphic_part():
    dz, dzb = wirtinger_fd(lambda w: w * w.conjugate(), 0.5 - 0.25j)
    assert abs(dz - (0.5 + 0.25j)) < 1e-8
    assert abs(dzb - (0.5 - 0.25j)) < 1e-8


def test_real_metric_block_structure(fs2, rng):
    p = fs2.sample_point(rng)
    g = fs2.metric_matrix(p)
    gamma = real_metric_at(fs2, real_point(fs2, p))
    m = fs2.m
    assert np.allclose(gamma[:m, :m], 2 * g.real)
    assert np.allclose(gamma[m:, m:], 2 * g.real)
    assert np.allclose(gamma[:m, m:], 2 * g.imag)
    assert np.allclose(gamma, gamma.T)


def test_oracle_riemann_symmetries(fs2, rng):
    riem = riemann_tensor_fd(fs2, real_point(fs2, fs2.sample_point(rng)))
    assert np.max(np.abs(riem + riem.transpose(1, 0, 2, 3))) < 1e-6
    assert np.max(np.abs(riem - riem.transpose(2, 3, 0, 1))) < 1e-6


def test_oracle_matches_symbolic_on_flat(flat2, rng):
    p = flat2.sample_point(rng)
    riem = riemann_tensor_fd(flat2, real_point(flat2, p))
    assert np.max(np.abs(riem)) < 1e-9


def test_oracle_matches_symbolic_on_chyp(chyp2, rng):
    p = chyp2.sample_point(rng)
    gm = geo.metric_at(chyp2, p)
    rc = geo.curvature_at(chyp2, p)
    riem = riemann_tensor_fd(chyp2, real_point(chyp2, p))
    for _ in range(20):
        vecs = [geo.random_unit_tangent(gm, 2, rng) for _ in range(4)]
        a = geo.real_curvature(rc, *vecs)
        b = real_curvature_fd(riem, *vecs)
        assert abs(a - b) <= 1e-5 * max(1.0, abs(a), abs(b))
