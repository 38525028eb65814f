import sys

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
