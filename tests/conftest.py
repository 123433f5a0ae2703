import os
import subprocess
import sys

import pytest

import qburau
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


@pytest.fixture
def fresh_python():
    """Run a fresh interpreter with the given arguments; it imports the
    same qburau as this process, also when pytest put src/ on sys.path
    itself and PYTHONPATH is unset."""
    src = os.path.dirname(os.path.dirname(qburau.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args):
        return subprocess.run([sys.executable, *args],
                              capture_output=True, text=True, env=env)
    return run
