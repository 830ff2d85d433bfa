import math
import os
import sys

# allow running the suite from a fresh checkout without installing
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import numpy as np
import pytest

from trace_bounds import geometry as G


@pytest.fixture(scope="session")
def disk():
    """Unit disk at the acceptance resolution h = 0.02."""
    return G.build_domain(G.DomainSpec.disk(1.0, 0.02))


@pytest.fixture(scope="session")
def disk_coarse():
    return G.build_domain(G.DomainSpec.disk(1.0, 0.04))


@pytest.fixture(scope="session")
def ball():
    """Unit ball at the acceptance resolution h = 0.1."""
    return G.build_domain(G.DomainSpec.ball(1.0, 0.1))


@pytest.fixture(scope="session")
def ellipse():
    return G.build_domain(G.DomainSpec.ellipse(2.0, 1.0, 0.02))


@pytest.fixture(scope="session")
def annulus():
    return G.build_domain(G.DomainSpec.annulus(0.5, 1.0, 0.02))


@pytest.fixture(scope="session")
def theta_stack():
    """The (nu, t) stacks optimal_bc.sweep_theta builds for ``steps`` angles
    theta in [0, pi/2] in ``dim`` dimensions: nu = e_1 and
    t = cos theta e_1 + sin theta e_2, each row normalised on its own."""
    def stack(steps, dim):
        nu = np.zeros((steps, dim))
        nu[:, 0] = 1.0
        t = np.zeros((steps, dim))
        for row, th in zip(t, np.linspace(0.0, math.pi / 2.0, steps)):
            row[:2] = math.cos(th), math.sin(th)
            row /= np.linalg.norm(row)
        return nu, t
    return stack


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240401)
