import re

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# numerics dominate runtime; wall-clock deadlines only cause flakes
settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


@pytest.fixture
def full_tensor():
    """Builds the unpruned Gauss-Hermite tensor rule of ``gh_nodes(order)``
    in dim dimensions, first axis slowest: (dim, N) nodes and their product
    weights."""
    from bfstab.quadrature import gh_nodes

    def build(order, dim):
        z, w = gh_nodes(order)
        grids = np.meshgrid(*[z] * dim, indexing="ij")
        nodes = np.stack([g.ravel() for g in grids])
        weights = np.ones(nodes.shape[1])
        for g in np.meshgrid(*[w] * dim, indexing="ij"):
            weights = weights * g.ravel()
        return nodes, weights

    return build


@pytest.fixture
def narrow_mixture():
    """Builds a 3-D two-component mixture whose first component has
    covariance Q diag(eps, 1, 2) Q' (Q from a seeded QR): at eps = 1e-6 and
    1e-8 its corollary once stalled the kink location."""
    from bfstab import GaussianMixtureND

    def build(eps):
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        cov = (q * [eps, 1.0, 2.0]) @ q.T
        return GaussianMixtureND([0.5, 0.5],
                                 [[0.5, -0.3, 0.2], [-1.0, 0.8, 0.4]],
                                 [0.5 * (cov + cov.T), np.eye(3)])

    return build


# one terminal line per acceptance criterion, independent of output capture
_CRITERION_RE = re.compile(r"test_criterion_(\d+)")
_criterion_outcomes = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    m = _CRITERION_RE.match(item.name)
    if m is None:
        return
    key = int(m.group(1))
    if rep.failed:
        _criterion_outcomes[key] = (item.name, False)
    elif rep.when == "call" and rep.passed:
        _criterion_outcomes.setdefault(key, (item.name, True))


def pytest_terminal_summary(terminalreporter):
    if not _criterion_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_criterion_outcomes):
        name, ok = _criterion_outcomes[key]
        terminalreporter.write_line(
            f"{name}: {'PASS' if ok else 'FAIL'}")
