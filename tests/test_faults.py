"""Fault injection: ``entlab selftest`` fails when any safeguard of the
measure kernels is broken."""

import numpy as np
import pytest

from entlab import measures, selftest


def _certify_all(kernel):
    """The kernel with every matrix reported as certified."""

    def forced(*args):
        values, certified = kernel(*args)
        return values, np.ones_like(certified)

    return forced


def _unsigned_flip(monkeypatch):
    monkeypatch.setattr(measures, "_FLIP_SIGNS", np.ones(4))


def _laguerre_certifies_all(monkeypatch):
    monkeypatch.setattr(measures, "_laguerre_min", _certify_all(measures._laguerre_min))


def _one_jacobi_sweep_certified(monkeypatch):
    monkeypatch.setattr(measures, "_JACOBI_SWEEPS", 1)
    monkeypatch.setattr(measures, "_jacobi", _certify_all(measures._jacobi))


def _one_laguerre_step_certified(monkeypatch):
    monkeypatch.setattr(measures, "_PT_LAGUERRE_STEPS", 1)
    monkeypatch.setattr(measures, "_laguerre_min", _certify_all(measures._laguerre_min))


def _negative_det_screen(monkeypatch):
    monkeypatch.setattr(measures, "DET_SCREEN", -1e-6)


@pytest.mark.parametrize(
    "fault",
    [
        _unsigned_flip,
        _laguerre_certifies_all,
        _one_jacobi_sweep_certified,
        _one_laguerre_step_certified,
        _negative_det_screen,
    ],
)
def test_selftest_catches_fault(monkeypatch, fault):
    fault(monkeypatch)
    assert not selftest.run_selftest(verbose=False)
