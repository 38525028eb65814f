import math
import sys
import warnings

import numpy as np
import pytest

from petalmap import maps


@pytest.fixture
def patch_stencil(monkeypatch):
    """Replace the arc stencil in every petalmap module that binds it."""
    stencil = maps._arc_derivatives

    def patch(replacement):
        for module in list(sys.modules.values()):
            if module.__name__.startswith("petalmap") and getattr(module, "_arc_derivatives", None) is stencil:
                monkeypatch.setattr(module, "_arc_derivatives", replacement)
        return stencil

    return patch


@pytest.fixture
def notch_trace():
    """Build the unit circle at n half-offset angles with a notch toward the origin.

    The samples within 0.004 rad of +-15 degrees are moved to ``radius``: an
    exterior notch that reaches the origin's neighbourhood between the 10-
    and 20-degree rays.
    """

    def build(radius, n=4096):
        phis = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        near = np.abs(np.abs(np.angle(np.exp(1j * phis))) - math.pi / 12.0) < 0.004
        return np.where(near, radius, 1.0) * np.exp(1j * phis)

    return build


@pytest.fixture(autouse=True)
def no_runtime_warnings():
    """Fail a test that emits a RuntimeWarning, also one the code under test catches.

    Under ``-W error`` a numpy warning inside a battery check is raised, caught
    by the battery's loop and recorded as a check error, so a test comparing two
    equally broken paths would pass.  Here every RuntimeWarning is recorded
    instead and must not occur; other categories keep the run's filters and
    are issued again after the test.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        yield
    runtime = []
    for w in caught:
        if issubclass(w.category, RuntimeWarning):
            runtime.append("%s:%d: %s" % (w.filename, w.lineno, w.message))
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    assert not runtime, "RuntimeWarning emitted:\n" + "\n".join(runtime)
