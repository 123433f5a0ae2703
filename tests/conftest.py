import pytest

from qburau import qrational
from qburau.cfrac import Frac


@pytest.fixture
def built_rows(monkeypatch):
    """The (r, s) of every Frac that qrational makes during the test, in
    order; singular_dens makes one per row it builds."""
    built = []

    def counting_frac(r, s):
        built.append((r, s))
        return Frac(r, s)

    monkeypatch.setattr(qrational, "Frac", counting_frac)
    return built
