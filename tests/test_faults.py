"""Fault injection: each fault of a measure kernel's safeguards changes the
output it targets on the stacks ``entlab selftest`` feeds that kernel, and
then the self-test fails."""

import types
from unittest import mock

import numpy as np
import pytest

from entlab import measures, selftest


def _certify_all(kernel):
    """The kernel with every matrix reported as certified."""

    def forced(*args):
        values, certified = kernel(*args)
        return values, np.ones_like(certified)

    return forced


def _rebuilt(function, **names):
    """The function of measures with names replaced in the globals it reads."""
    return types.FunctionType(function.__code__, {**vars(measures), **names}, function.__name__)


def _unsigned_flip(monkeypatch):
    monkeypatch.setattr(measures, "_FLIP_SIGNS", np.ones(4))


def _laguerre_certifies_all(monkeypatch):
    monkeypatch.setattr(measures, "_laguerre_min", _certify_all(measures._laguerre_min))


def _one_concurrence_laguerre_step_certified(monkeypatch):
    monkeypatch.setattr(measures, "_C_LAGUERRE_STEPS", 1)
    monkeypatch.setattr(measures, "_laguerre_concurrence", _certify_all(measures._laguerre_concurrence))


def _concurrence_newton_step_skipped_certified(monkeypatch):
    # a zero determinant makes the Newton step zero and leaves only the
    # diagonal's rounding in the bound; the concurrence kernel gets its own
    # copy of the shared root step, so the PT kernel keeps the real one
    zero_det = lambda d, *_: (np.zeros_like(d[0]), np.zeros_like(d[0]))
    root_step = _rebuilt(measures._laguerre_newton, _det_with_bound=zero_det)
    kernel = _rebuilt(measures._laguerre_concurrence, _laguerre_newton=root_step)
    monkeypatch.setattr(measures, "_laguerre_concurrence", _certify_all(kernel))


def _cancellation_test_off(monkeypatch):
    monkeypatch.setattr(measures, "_C_CANCEL", np.inf)


def _one_laguerre_step_certified(monkeypatch):
    monkeypatch.setattr(measures, "_PT_LAGUERRE_STEPS", 1)
    monkeypatch.setattr(measures, "_laguerre_min", _certify_all(measures._laguerre_min))


def _negative_det_screen(monkeypatch):
    monkeypatch.setattr(measures, "DET_SCREEN", -1e-6)


# each fault, the function of measures it targets and the output of that
# function it must change: a kernel's values (0) or certified mask (1), a
# screen's indices (0).  A fault that certifies everything must also change
# the values, or it would be caught for certifying everything alone.
FAULTS = [
    (_unsigned_flip, "_lapack_concurrence", 0),
    (_laguerre_certifies_all, "_laguerre_min", 1),
    (_one_concurrence_laguerre_step_certified, "_laguerre_concurrence", 0),
    (_concurrence_newton_step_skipped_certified, "_laguerre_concurrence", 0),
    (_cancellation_test_off, "_laguerre_concurrence", 1),
    (_one_laguerre_step_certified, "_laguerre_min", 0),
    (_negative_det_screen, "_pt_screen", 0),
]


def _output_bits(name, calls, index):
    """The bits of output index of measures.<name> on each argument tuple."""
    bits = []
    with np.errstate(all="ignore"):
        for args in calls:
            out = getattr(measures, name)(*args)
            out = out[index] if isinstance(out, tuple) else out
            bits.append((out.shape, out.tobytes()))
    return bits


@pytest.fixture(scope="module")
def selftest_inputs():
    """The arguments of every call of each targeted function during a
    self-test run without faults, which must pass."""
    calls = {name: [] for _, name, _ in FAULTS}

    def recording(name):
        function = getattr(measures, name)

        def recorded(*args):
            calls[name].append(args)
            return function(*args)

        return recorded

    with mock.patch.multiple(measures, **{name: recording(name) for name in calls}):
        assert selftest.run_selftest(verbose=False)
    return calls


@pytest.mark.parametrize("fault, target, index", [pytest.param(*case, id=case[0].__name__) for case in FAULTS])
def test_selftest_catches_fault(monkeypatch, selftest_inputs, fault, target, index):
    calls = selftest_inputs[target]
    clean = _output_bits(target, calls, index)
    fault(monkeypatch)
    assert _output_bits(target, calls, index) != clean  # the fault is live
    assert not selftest.run_selftest(verbose=False)
