"""Fault injection: ``entlab selftest`` fails when any safeguard of the
measure kernels is broken."""

import types

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


def _one_concurrence_laguerre_step_certified(monkeypatch):
    monkeypatch.setattr(measures, "_C_LAGUERRE_STEPS", 1)
    monkeypatch.setattr(measures, "_laguerre_concurrence", _certify_all(measures._laguerre_concurrence))


def _concurrence_newton_step_skipped_certified(monkeypatch):
    # a zero determinant makes the Newton step zero and leaves only the
    # diagonal's rounding in the bound; the PT kernel keeps the real one
    kernel = measures._laguerre_concurrence
    zero_det = {**vars(measures), "_det_with_bound": lambda d, *_: (np.zeros_like(d[0]), np.zeros_like(d[0]))}
    skipped = types.FunctionType(kernel.__code__, zero_det, kernel.__name__)
    monkeypatch.setattr(measures, "_laguerre_concurrence", _certify_all(skipped))


def _cancellation_test_off(monkeypatch):
    monkeypatch.setattr(measures, "_C_CANCEL", np.inf)


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
        _one_concurrence_laguerre_step_certified,
        _concurrence_newton_step_skipped_certified,
        _cancellation_test_off,
        _one_laguerre_step_certified,
        _negative_det_screen,
    ],
)
def test_selftest_catches_fault(monkeypatch, fault):
    fault(monkeypatch)
    assert not selftest.run_selftest(verbose=False)
