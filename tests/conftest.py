"""Fixtures shared by the test modules."""

import sys

import pytest

from qwk import qcore


@pytest.fixture
def eigensystem_calls(monkeypatch):
    """The list of matrix sides that ``qcore.hermitian_eigensystem`` is
    called on, one entry per call, through every qwk module that imported it."""
    calls = []
    real = qcore.hermitian_eigensystem

    def counting(m):
        calls.append(len(m))
        return real(m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qwk" and getattr(module, "hermitian_eigensystem", None) is real:
            monkeypatch.setattr(module, "hermitian_eigensystem", counting)
    return calls
