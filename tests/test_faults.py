"""Fault injection: each fault of a measure kernel's safeguards changes the
output it targets on the stacks ``entlab selftest`` feeds that kernel, each
fault of the CSV float kernel changes the bytes write_csv writes for the
self-test's values, a fault of the reader's kernel changes the values it
reads from the self-test's fields, and then the self-test fails, under
``python -O`` too."""

import inspect
import io
import os
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from entlab import cmat, measures, qstate, sampler, selftest


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


def _size_route_restored(monkeypatch):
    # a stack of fewer than 256 matrices goes to LAPACK whole, so that a
    # state's bits depend on the size of the stack it is measured in
    kernel_or_lapack = measures._kernel_or_lapack

    def sized(kernel, lapack):
        values = kernel_or_lapack(kernel, lapack)
        return lapack(...) if len(values) < 256 else values

    monkeypatch.setattr(measures, "_kernel_or_lapack", sized)


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
    (_size_route_restored, "_pt_min", 0),
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


def test_selftest_catches_inexact_hermiticity(monkeypatch):
    # a defect far inside TOL.hermiticity passes validation, but the PT
    # screen relies on the sampler's rho being exactly Hermitian
    assemble = sampler._assemble_entries

    def skewed(probs, cols):
        rho = assemble(probs, cols)
        rho[0, 1] += 1e-12
        return rho

    monkeypatch.setattr(sampler, "_assemble_entries", skewed)
    rhos = sampler.random_density_batch(sampler.RngStream(1), 300)
    qstate._checked_eig(rhos)  # passes the stack check
    assert cmat.hermiticity_defects(rhos).max(initial=0.0) > 0.0  # the fault is live
    assert not selftest.run_selftest(verbose=False)


class _NumpyWith:
    """numpy with some of its functions replaced."""

    def __init__(self, **replaced):
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(np, name)


def _floor_for_rint(monkeypatch):
    # e rounded down, not half to even: D is no longer P rounded
    monkeypatch.setattr(qstate, "np", _NumpyWith(rint=np.floor))


def _decade_uncorrected(monkeypatch):
    # k left as -floor(log10 |x|), one too small just below a power of ten
    monkeypatch.setattr(qstate, "_correct_decade", lambda ax, k, p, e: (k, p, e))


# The kernel has no carry step to drop: no value of its range rounds up to
# 10^17 (tests/test_qstate.py, test_no_value_carries).
CSV_FAULTS = [_floor_for_rint, _decade_uncorrected]


def _csv_text(values) -> str:
    text = io.StringIO()
    qstate.write_csv(text, "x", [values])
    return text.getvalue()


@pytest.mark.parametrize("fault", [pytest.param(f, id=f.__name__) for f in CSV_FAULTS])
def test_selftest_catches_csv_fault(monkeypatch, fault):
    values = selftest._csv_probe_values()
    clean = _csv_text(values)
    fault(monkeypatch)
    assert _csv_text(values) != clean  # the fault is live
    assert not selftest.run_selftest(verbose=False)


# faults of the reader's kernel, as edits of its source: y = fl(S / 10^L)
# alone, as certified as before; and q or y a power of two, where the ulp
# halves below, certified too
READER_FAULTS = {
    "residual_correction_dropped": ("y = q + m * ulp", "y = q"),
    "powers_of_two_certified": ("& off_powers)", ")"),
}


@pytest.mark.parametrize("old, new", list(READER_FAULTS.values()), ids=list(READER_FAULTS))
def test_selftest_catches_reader_fault(monkeypatch, old, new):
    rows = selftest._csv_parse_rows()
    lines = range(1, len(rows) + 1)
    clean = qstate._convert_block(rows, lines).tobytes()
    source = inspect.getsource(qstate._decimal_fields)
    assert source.count(old) == 1
    namespace = dict(vars(qstate))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(qstate, "_decimal_fields", namespace["_decimal_fields"])
    assert qstate._convert_block(rows, lines).tobytes() != clean  # the fault is live
    assert not selftest.run_selftest(verbose=False)


@pytest.mark.parametrize("bias", [1 - 1e-15, 1 + 1e-15], ids=["k too small", "k too large"])
def test_decade_correction_works_both_ways(monkeypatch, bias):
    # a log10 that errs either way near a power of ten, as another libm may,
    # moves k by one for more values there; the correction puts it back
    values = selftest._csv_probe_values()
    correct = qstate._correct_decade
    off = []

    def recorded(ax, k, p, e):
        off.append(np.count_nonzero((p < 1e16) | (p >= 1e17)))
        return correct(ax, k, p, e)

    monkeypatch.setattr(qstate, "_correct_decade", recorded)
    clean, clean_off = _csv_text(values), sum(off)
    monkeypatch.setattr(qstate, "np", _NumpyWith(log10=lambda x: np.log10(x) * bias))
    assert _csv_text(values) == clean
    assert sum(off) - clean_off > clean_off  # the bias sent more values to the correction


_SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("fault", ["pass", "measures.DET_SCREEN = -1e-6", "measures._FLIP_SIGNS = np.ones(4)"])
def test_selftest_catches_fault_under_python_O(tmp_path, fault):
    # python -O strips assert statements; the self-test's checks must stay,
    # and with no fault ("pass") it passes
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "from entlab import cli, measures",
        "if not sys.flags.optimize:",
        "    sys.exit(3)",
        fault,
        "sys.exit(cli.main(['selftest']))",
    ])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True, text=True, timeout=120,
    )
    faulty = fault != "pass"
    assert proc.returncode == int(faulty), proc.stdout + proc.stderr
    assert ("[FAIL]" in proc.stdout) == faulty
