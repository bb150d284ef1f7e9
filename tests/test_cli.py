import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from entlab import cli, cmat, experiment, measures, qstate, sampler, selftest
from entlab.cli import MAX_SAMPLE_COUNT, main
from entlab.errors import NotConverged, NotPSD
from entlab.sampler import RngStream, random_density_batch
from strategies import raw_stacks


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_rows_of(rhos):
    buf = io.StringIO()
    qstate.write_stack(buf, [np.stack([rho.matrix for rho in rhos])])
    return buf.getvalue().splitlines()[1:]


def write_states(path, rhos):
    path.write_text("\n".join([qstate.CSV_HEADER, *_csv_rows_of(rhos)]) + "\n")


def parse_measure_output(out):
    header, *rows = out.strip().splitlines()
    names = header.split(",")
    parsed = []
    for row in rows:
        fields = row.split(",")
        rec = {k: v for k, v in zip(names, fields)}
        parsed.append(rec)
    return parsed


class TestMeasure:
    def test_werner_075(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--family", "werner", "--param", "0.75")
        assert code == 0
        (row,) = parse_measure_output(out)
        assert float(row["concurrence"]) == pytest.approx(0.5, abs=1e-10)
        assert float(row["e_negative"]) == pytest.approx(0.25, abs=1e-10)
        assert row["separable"] == "false"

    def test_separable_werner(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--family", "werner", "--param", "0.4")
        assert code == 0
        (row,) = parse_measure_output(out)
        assert row["separable"] == "true"
        for key in ("concurrence", "e_formation", "e_negative", "e_sum"):
            assert abs(float(row[key])) < 1e-10

    def test_singlet(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--family", "singlet")
        assert code == 0
        (row,) = parse_measure_output(out)
        assert float(row["e_formation"]) == pytest.approx(1.0, abs=1e-10)

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "states.csv"
        write_states(path, [qstate.werner_state(0.75), qstate.singlet()])
        code, out, _ = run_cli(capsys, "measure", "--input", str(path))
        assert code == 0
        rows = parse_measure_output(out)
        assert len(rows) == 2
        assert float(rows[0]["e_negative"]) == pytest.approx(0.25, abs=1e-10)

    def test_param_out_of_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "measure", "--family", "werner", "--param", "1.5")
        assert code == 2
        assert "error" in err

    def test_family_and_input_conflict(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        write_states(path, [qstate.singlet()])
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--family", "singlet", "--input", str(path)])
        assert exc.value.code == 2

    def test_param_with_singlet_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--family", "singlet", "--param", "0.3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--param" in captured.err

    @pytest.mark.parametrize("family", ["werner", "pure"])
    def test_family_without_param_is_usage_error(self, capsys, family):
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--family", family])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"--family {family} requires --param" in captured.err

    def test_param_with_input_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        write_states(path, [qstate.singlet()])
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--input", str(path), "--param", "0.3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--param" in captured.err

    def test_invalid_state_file_is_numerical_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        bad = ["0.5"] + ["0.0"] * 31
        bad[2 * 5] = "0.6"  # diag entry too large: trace != 1
        path.write_text(qstate.CSV_HEADER + "\n" + ",".join(bad) + "\n")
        code, _, err = run_cli(capsys, "measure", "--input", str(path))
        assert code == 1
        assert "trace" in err.lower()

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_row_is_numerical_error(self, capsys, tmp_path, token):
        # a data row may start with a letter; only the exact header line is skipped
        path = tmp_path / "bad.csv"
        path.write_text(",".join([token] + ["0.0"] * 31) + "\n")
        code, out, err = run_cli(capsys, "measure", "--input", str(path))
        assert code == 1
        assert out == "" and err.startswith("error: ") and "non-finite" in err

    def test_missing_input_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "measure", "--input", str(tmp_path / "missing.csv"))
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("alpha", ["1.0", "0.0"])
    def test_pure_endpoints_print_no_negative_zero(self, capsys, alpha):
        # lambda_min of the PT is exactly 0.0 at both product-state endpoints
        code, out, _ = run_cli(capsys, "measure", "--family", "pure", "--param", alpha)
        assert code == 0
        assert out.splitlines()[1] == "0,0,0,0,0,true"

    def test_rows_match_field_by_field_format(self, capsys, tmp_path):
        # each row is the five table values to 17 significant digits, then
        # the separable flag
        rhos = [qstate.singlet(), qstate.DensityMatrix(np.eye(4) / 4)]
        path = tmp_path / "states.csv"
        write_states(path, rhos)
        code, out, _ = run_cli(capsys, "measure", "--input", str(path))
        assert code == 0
        header, *rows = out.splitlines()
        assert header == measures.REPORT_CSV_HEADER
        table = measures.measure_table(np.stack([rho.matrix for rho in rhos]))
        names = header.split(",")[:-1]
        for k, flag in enumerate(["false", "true"]):
            assert rows[k] == ",".join([f"{table[name][k]:.17g}" for name in names] + [flag])
        assert float(rows[1].split(",")[4]) == pytest.approx(0.75)

    @pytest.mark.parametrize("n", [1, 300])
    def test_product_states_print_no_negative_zero(self, capsys, tmp_path, n):
        # lambda_min of the PT of |00><00| is exactly 0.0, on the LAPACK
        # route (1 state) and the kernel route (300)
        path = tmp_path / "states.csv"
        write_states(path, [qstate.pure_schmidt(1.0)] * n)
        code, out, _ = run_cli(capsys, "measure", "--input", str(path))
        assert code == 0
        assert out.splitlines()[1:] == ["0,0,0,0,0,true"] * n

    @pytest.mark.parametrize("text", ["", qstate.CSV_HEADER + "\n", "\n"])
    def test_empty_input_prints_header_only(self, capsys, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        code, out, err = run_cli(capsys, "measure", "--input", str(path))
        assert (code, out, err) == (0, measures.REPORT_CSV_HEADER + "\n", "")

    def test_bad_row_names_its_line(self, capsys, tmp_path):
        rows = _csv_rows_of([qstate.singlet()] * 5)
        for bad, code_expected, message in (
            (",".join(["0.25"] * 31), 1, "error: line 4: expected 32 CSV fields, got 31\n"),
            (rows[0].replace("0.5", "x", 1), 2, "error: line 4: could not convert string to float: 'x'\n"),
            (rows[0].replace("0.5", "0.75", 1), 1, "error: line 4: trace deviates from 1 by 2.500e-01\n"),
        ):
            path = tmp_path / "bad.csv"
            path.write_text("\n".join([qstate.CSV_HEADER, *rows[:2], bad, *rows[2:]]) + "\n")
            code, out, err = run_cli(capsys, "measure", "--input", str(path))
            assert (code, out, err) == (code_expected, "", message)

    def test_non_ascii_byte_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\n".join([qstate.CSV_HEADER.encode(), b"0.25,\xc3\xa9", b""]))
        code, out, err = run_cli(capsys, "measure", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: could not convert string to float: ")

    def test_measure_failure_prints_nothing(self, capsys, tmp_path, monkeypatch):
        # a state file's stack is measured by _table_from_eig, with the
        # eigendecomposition its check took; measure_table runs it as well
        def fail(*_args):
            raise NotConverged("eigh did not converge")

        path = tmp_path / "states.csv"
        write_states(path, [qstate.singlet()] * 3)
        monkeypatch.setattr(measures, "_table_from_eig", fail)
        code, out, err = run_cli(capsys, "measure", "--input", str(path))
        assert (code, out, err) == (1, "", "error: eigh did not converge\n")

    def test_kernel_sized_file_matches_measure_report(self, capsys, tmp_path):
        # each row of a file's table is the report of its state alone, bit
        # for bit: CSV_FLOAT's 17 digits read back as the same double
        path = tmp_path / "states.csv"
        assert run_cli(capsys, "sample", "--seed", "5", "--count", "600", "--out", str(path))[0] == 0
        code, out, _ = run_cli(capsys, "measure", "--input", str(path))
        assert code == 0
        rows = out.splitlines()[1:]
        names = measures.REPORT_CSV_HEADER.split(",")[:-1]
        ms = random_density_batch(RngStream(5), 600)
        assert len(rows) == len(ms)
        for row, m in zip(rows, ms):
            report = measures.measure_report(qstate.DensityMatrix(m))
            fields = row.split(",")
            assert fields[-1] == ("true" if report.separable else "false")
            for name, field in zip(names, fields):
                assert float(field) == getattr(report, name), name

    def test_state_file_is_diagonalized_once(self, capsys, tmp_path, monkeypatch):
        # one eigh of the file's stack serves the PSD check and the measures;
        # eigvalsh sees only partial transposes of states reassembled from
        # the check's clamped eigenpairs that the determinant screen kept,
        # here all of them, as a zero tolerance makes the PT kernel refuse each
        path = tmp_path / "states.csv"
        assert run_cli(capsys, "sample", "--seed", "5", "--count", "300", "--out", str(path))[0] == 0
        ms = random_density_batch(RngStream(5), 300)
        calls = {"eigh": [], "eigvalsh": []}
        for name in calls:

            def recorded(a, *args, _name=name, _function=getattr(np.linalg, name), **kwargs):
                calls[_name].append(np.array(a))
                return _function(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        monkeypatch.setattr(measures, "_PT_TOL", 0.0)
        code, out, _ = run_cli(capsys, "measure", "--input", str(path))
        assert code == 0 and out.count("\n") == 301
        assert [stack.shape for stack in calls["eigh"]] == [(300, 4, 4)]
        assert np.array_equal(calls["eigh"][0], ms)
        w, u = np.linalg.eigh(ms)
        cols = np.ascontiguousarray(u.transpose(2, 1, 0))
        rho = sampler._assemble_entries(np.clip(w, 0.0, None), cols).transpose(2, 0, 1)
        pts = cmat.partial_transpose_b(rho).reshape(300, 16)
        assert calls["eigvalsh"]
        for stack in calls["eigvalsh"]:
            assert len(stack) < 300
            assert all((pts == m.ravel()).all(axis=1).any() for m in stack)
            assert (measures._hermitian_det(stack.transpose(1, 2, 0)) <= measures.DET_SCREEN).all()

    def test_sampled_file_within_cn_region(self, capsys, tmp_path):
        # the stack route of `measure --input` keeps every (C, N = 2 E_N)
        # point inside the two-qubit region
        path = tmp_path / "states.csv"
        assert run_cli(capsys, "sample", "--seed", "6", "--count", "3000", "--out", str(path))[0] == 0
        code, out, _ = run_cli(capsys, "measure", "--input", str(path))
        assert code == 0
        rows = parse_measure_output(out)
        table = {name: np.array([float(row[name]) for row in rows]) for name in ("concurrence", "e_negative")}
        assert len(rows) == 3000 and selftest.cn_region_excess(table) <= 1e-12

    # SHA-256 of `sample --seed 3 --count 255 --out F` and of `measure
    # --input F` (numpy 2.4.6, OpenBLAS 0.3.31, Python 3.11.7).  The measure
    # digest was re-pinned when E_N and S moved to the state reassembled
    # from the checked spectral pair (by at most 5.3e-16 and 1.0e-15 on this
    # file; no flag flipped), again when E_F took the form that keeps its
    # relative accuracy for weak entanglement (85 of 255 values moved, by at
    # most 1.0e-11 relative), and again when the kernels took every stack,
    # where LAPACK had taken this one whole for its size (84 values of C,
    # E_N and E_sum and 82 of E_F moved, by at most 5.3e-16; no flag flipped).
    PINNED_SAMPLE_SHA256 = "5b9b707f4564eaffb9c829e8c2bf4dcf0cc89b3459774bb2a64bb398b5fcec66"
    PINNED_MEASURE_SHA256 = "cdf93e4d0038d128ad77b680b092446d94d977d3a82af51897fa75fa513d15ca"

    def test_pinned_sample_and_measure_digests(self, capsys, tmp_path):
        path = tmp_path / "states.csv"
        assert run_cli(capsys, "sample", "--seed", "3", "--count", "255", "--out", str(path))[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_SAMPLE_SHA256
        code, out, _ = run_cli(capsys, "measure", "--input", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_MEASURE_SHA256


_VALID_ROWS = _csv_rows_of((qstate.singlet(), qstate.werner_state(0.75), qstate.werner_state(0.3)))
_FIELDS = st.one_of(
    st.sampled_from(["0", "0.25", "-0.5", "nan", "inf", "-inf", "1e999", "", "abc", "1e308"]),
    st.floats().map(repr),
    st.text(alphabet="0123456789.eE+-naifx ", max_size=6),
)


@st.composite
def _csv_rows(draw):
    kind = draw(st.sampled_from(["valid", "mutated", "fields", "text"]))
    if kind == "fields":
        return ",".join(draw(st.lists(_FIELDS, max_size=34)))
    if kind == "text":
        return draw(st.text(alphabet="0123456789.,eE+-naifx \té", max_size=40))
    fields = draw(st.sampled_from(_VALID_ROWS)).split(",")
    if kind == "mutated":
        fields[draw(st.integers(0, 31))] = draw(_FIELDS)
    return ",".join(fields)


def assert_measure_input_contract(lines, n_states):
    """`measure --input` over these lines exits 0 with one output row per
    state, or 1 or 2 with an `error: ` message, and never with a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "states.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["measure", "--input", path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert len(out.getvalue().splitlines()) == 1 + n_states
    else:
        assert err.getvalue().startswith("error: ")


@given(header=st.booleans(), rows=st.lists(_csv_rows(), max_size=4))
@settings(max_examples=150, deadline=None)
def test_measure_input_exit_contract(header, rows):
    """Any CSV text yields exit 0, 1 or 2 and never a traceback; exit 0 prints
    one row per data line."""
    lines = ([qstate.CSV_HEADER] if header else []) + rows
    assert_measure_input_contract(lines, len([row for row in rows if row.strip()]))


@given(raw_stacks(sizes=st.just(1), forms=("raw", "hermitian", "gram", "state")))
@settings(max_examples=300, deadline=None)
def test_measure_input_raw_matrix_contract(ms):
    """A raw 4x4 complex matrix (NaN, inf, 1e+-300 and subnormal entries
    included), written as a 32-field row, gets the same contract."""
    row = ",".join(f"{v:.17g}" for z in ms[0].ravel() for v in (z.real, z.imag))
    assert_measure_input_contract([row], 1)


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


def _int_args(lo, hi):
    """An integer in [lo, hi] as text, or text that is no integer at all."""
    return st.one_of(st.integers(lo, hi).map(str), st.text(max_size=8).filter(_not_an_int))


_GRID_VALUES = st.one_of(
    st.floats(-1.0, 2.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "0.25", "1", "abc", ""]),
)
# steps of at least 3e-3 over a range of at most 3 keep a grid under 10^3 points
_GRID_STEPS = st.one_of(
    st.floats(3e-3, 5.0).map(repr),
    st.sampled_from(["0", "-0.1", "nan", "inf", "-inf", "x"]),
)
# tiny steps, down to the smallest subnormal, only between ends 0 or at least
# 1/4 apart: such a grid has one point or far more than the CLI accepts
_TINY_GRID_ENDS = st.sampled_from(["0.25", "0.5", "1", "2"])
_TINY_GRID_STEPS = st.floats(5e-324, 1e-7).map(repr)


@st.composite
def _grids(draw):
    kind = draw(st.sampled_from(["parts", "tiny", "text"]))
    if kind == "text":
        return draw(st.text(max_size=12).filter(lambda t: t.count(":") != 2))
    if kind == "tiny":
        parts = [draw(_TINY_GRID_ENDS), draw(_TINY_GRID_ENDS), draw(_TINY_GRID_STEPS)]
    else:
        parts = [draw(_GRID_VALUES), draw(_GRID_VALUES), draw(_GRID_STEPS)]
    return ":".join(parts[: draw(st.integers(1, 3))])


_SEEDS = _int_args(-(2**70), 2**70)


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(["werner-table", "sample", "compare"]))
    if command == "werner-table":
        return ["werner-table", "--grid", draw(_grids())]
    if command == "sample":
        return ["sample", "--seed", draw(_SEEDS), "--count", draw(_int_args(-4, 64))]
    return [
        "compare", "--seed", draw(_SEEDS), "--pairs", draw(_int_args(-4, 64)),
        "--threads", draw(_int_args(-2, 4)),
    ]


@given(argv=_cli_argv())
@settings(max_examples=150, deadline=None)
def test_cli_argument_exit_contract(argv):
    """Any argument string yields exit 0, 1 or 2 and never a traceback; a
    failing run prints nothing to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "compare":
            argv = argv + ["--out", tmp]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == ""


class TestSample:
    def test_deterministic_file(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli(capsys, "sample", "--seed", "3", "--count", "25", "--out", str(out1))[0] == 0
        assert run_cli(capsys, "sample", "--seed", "3", "--count", "25", "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        with open(out1, encoding="ascii") as fh:
            assert qstate.read_stack(fh).shape == (25, 4, 4)

    def test_stdout_mode(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--seed", "3", "--count", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == qstate.CSV_HEADER
        assert len(lines) == 3

    def test_count_out_of_range(self, capsys):
        # refused before any state is drawn: no traceback, nothing on stdout
        for count in ("1000000000000", str(MAX_SAMPLE_COUNT + 1), "-1"):
            tracemalloc.start()
            try:
                code, out, err = run_cli(capsys, "sample", "--seed", "1", "--count", count)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")
            assert peak < 2**20

    @pytest.mark.parametrize("count", [0, 1, cli.STATE_BLOCK - 1, cli.STATE_BLOCK, cli.STATE_BLOCK + 1,
                                       2 * cli.STATE_BLOCK + 1])
    def test_blocks_write_one_stack(self, capsys, tmp_path, count):
        # drawn and written STATE_BLOCK states at a time, to a file or to
        # stdout: the bytes of one write_stack of one draw
        buf = io.StringIO()
        qstate.write_stack(buf, [random_density_batch(RngStream(12), count)])
        path = tmp_path / "states.csv"
        argv = ["sample", "--seed", "12", "--count", str(count)]
        assert run_cli(capsys, *argv, "--out", str(path)) == (0, f"wrote {count} states to {path}\n", "")
        assert path.read_bytes() == buf.getvalue().encode()
        assert run_cli(capsys, *argv) == (0, buf.getvalue(), "")

    def test_count_zero_writes_the_file_of_no_stack(self, capsys):
        buf = io.StringIO()
        qstate.write_stack(buf, [])
        assert run_cli(capsys, "sample", "--seed", "1", "--count", "0") == (0, buf.getvalue(), "")

    def test_holds_one_block_at_a_time(self, monkeypatch, tmp_path):
        # each block is drawn after every earlier one is freed, and the
        # first before --out is opened
        path, refs = tmp_path / "states.csv", []
        draw = sampler.random_density_batch

        def tracked(rng, n):
            assert [ref() for ref in refs] == [None] * len(refs)
            assert path.exists() == bool(refs)
            ms = draw(rng, n)
            refs.append(weakref.ref(ms))
            return ms

        monkeypatch.setattr(sampler, "random_density_batch", tracked)
        count = 3 * cli.STATE_BLOCK + 5
        assert main(["sample", "--seed", "4", "--count", str(count), "--out", str(path)]) == 0
        assert len(refs) == 4
        monkeypatch.undo()
        buf = io.StringIO()
        qstate.write_stack(buf, [random_density_batch(RngStream(4), count)])
        assert path.read_text() == buf.getvalue()

    def test_memory_is_flat_in_count(self, tmp_path):
        # one block at a time: 20000 states take no more memory than 4096
        peaks = []
        for count in (cli.STATE_BLOCK, 20000):
            tracemalloc.start()
            try:
                argv = ["sample", "--seed", "1", "--count", str(count), "--out", str(tmp_path / "s.csv")]
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("command", [["sample", "--count", "2"], ["compare", "--pairs", "2"]])
def test_negative_seed_is_named_usage_error(capsys, tmp_path, command):
    # refused by the RNG stream every seed goes through, before any output
    out_path = tmp_path / "out"
    code, out, err = run_cli(capsys, *command, "--seed", "-1", "--out", str(out_path))
    assert (code, out, err) == (2, "", "error: seed must be a non-negative integer, got -1\n")
    assert not out_path.exists()


class TestCompare:
    def test_byte_identical_reruns_and_threads(self, capsys, tmp_path):
        dirs = [tmp_path / name for name in ("one", "two", "threaded")]
        for d, threads in zip(dirs, ("1", "1", "4")):
            code, _, _ = run_cli(
                capsys,
                "compare", "--seed", "7", "--pairs", "800",
                "--out", str(d), "--threads", threads,
            )
            assert code == 0
        names = ["fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv", "summary.csv"]
        for name in names:
            ref = (dirs[0] / name).read_bytes()
            assert (dirs[1] / name).read_bytes() == ref
            assert (dirs[2] / name).read_bytes() == ref

    # SHA-256 of each `compare --seed 31415 --pairs 3000` CSV, measured with
    # numpy 2.4.6, OpenBLAS 0.3.31, Python 3.11.7 (states_drawn 16379,
    # states_kept 6000, 0 ties).  A refactor of the harness must leave these
    # unchanged; a change that alters output bits says so and re-pins them.
    # fig1 and fig2 were re-pinned when E_F took the form that keeps its
    # relative accuracy for weak entanglement (E_F moved by at most 8.4e-7
    # relative, d_ef by 3.5e-10; no flag flipped), and fig1-3 when the
    # kernels took every stack: LAPACK had taken the 17 entangled states of
    # a shard's small top-up chunk for their number, and 4 of them moved C,
    # E_F and E_N by at most 1.7e-16, 3 pairs' d_en and d_ef by at most
    # 3.9e-15; no flag flipped.
    PINNED_SHA256 = {
        "fig1.csv": "ec14d438621c2f75c53e4b896a80ec90dd5ce56c52a8ad05674373f756584313",
        "fig2.csv": "149ab15e9402152cea1b915da2e91ad3cfff8c5fbdfc1a157d8e294bba4c9315",
        "fig3.csv": "01034b5edcb3e04a85adbe935c319d16f9a24c7933b948826a01c0480153956e",
        "fig4.csv": "9c2fd2364b1633c360a94d8ab5edb8630d2f022ddbd43d44b7acab7587abbd83",
        "summary.csv": "ecc8fc07191672407314c051cf8a695903f0d17098d96a030444d9eb8b7f53ad",
    }

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_pinned_csv_digests(self, capsys, tmp_path, threads):
        code, _, _ = run_cli(
            capsys,
            "compare", "--seed", "31415", "--pairs", "3000",
            "--out", str(tmp_path), "--threads", threads,
        )
        assert code == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.PINNED_SHA256
        }
        assert digests == self.PINNED_SHA256

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--pairs", experiment.MAX_PAIRS + 1),
            ("--threads", experiment.MAX_THREADS + 1),
        ],
    )
    def test_input_over_its_bound_is_usage_error(self, capsys, tmp_path, flag, value):
        # refused before any state is drawn: no traceback, no output files
        argv = {"--seed": "1", "--pairs": "1", "--out": str(tmp_path / "out"), flag: str(value)}
        code, out, err = run_cli(capsys, "compare", *(tok for item in argv.items() for tok in item))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_summary_contents(self, capsys, tmp_path):
        # seeds past int64 and uint64 are echoed digit for digit
        for seed in (9, 2**63, 2**70):
            run_cli(capsys, "compare", "--seed", str(seed), "--pairs", "200", "--out", str(tmp_path))
            header, row = (tmp_path / "summary.csv").read_text().splitlines()
            values = dict(zip(header.split(","), row.split(",")))
            assert values["seed"] == str(seed)
            assert int(values["n_pairs"]) == 200
            drawn = int(values["states_drawn"])
            kept = int(values["states_kept"])
            assert drawn == kept + int(values["states_discarded"])


class TestWernerTable:
    def test_default_grid(self, capsys):
        code, out, _ = run_cli(capsys, "werner-table")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "f,concurrence,e_formation,e_negative,e_sum"
        assert len(lines) == 1 + 16  # 0.25 .. 1.00 step 0.05

    def test_values_on_coarse_grid(self, capsys):
        code, out, _ = run_cli(capsys, "werner-table", "--grid", "0.5:1.0:0.25")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [0.5, 0.75, 1.0]
        f_mid = rows[1]
        assert float(f_mid[1]) == pytest.approx(0.5, abs=1e-10)
        assert float(f_mid[3]) == pytest.approx(0.25, abs=1e-10)
        # a step that does not divide the range stops short of STOP, never past it
        for grid, n_rows, last in (("0.5:1.0:0.3", 2, 0.8), ("0.5:1.0:0.05", 11, 1.0)):
            code, out, err = run_cli(capsys, "werner-table", "--grid", grid)
            f = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
            assert (code, err) == (0, "")
            assert len(f) == n_rows and f[0] == 0.5 and f[-1] == pytest.approx(last)
            assert max(f) <= 1.0

    def test_blocks_write_one_table(self, capsys, monkeypatch):
        # 7501 points span two blocks; one block gives the same bytes
        code, out, _ = run_cli(capsys, "werner-table", "--grid", "0.25:1:1e-4")
        monkeypatch.setattr(cli, "STATE_BLOCK", 10**6)
        assert (code, out) == (0, run_cli(capsys, "werner-table", "--grid", "0.25:1:1e-4")[1])
        assert out.endswith("\n") and out.count("\n") == 1 + 7501

    # SHA-256 of `werner-table --grid 0.25:1:1e-4` (7501 rows across two
    # STATE_BLOCK blocks), measured with numpy 2.4.6, OpenBLAS 0.3.31,
    # Python 3.11.7.  A change of the table's writer must leave it unchanged.
    # Re-pinned when E_N moved to the state reassembled from the checked
    # spectral pair (by at most 2.2e-16; C and E_F kept every bit), and
    # again when E_F took the form that keeps its relative accuracy for weak
    # entanglement (3675 of 7501 values moved, by at most 5.9e-9 relative).
    PINNED_SHA256 = "14a4d9dab64831994bdeb52d56409e48c3a3633e4d09e89a42a94c161f16c851"

    def test_pinned_digest(self, capsys):
        code, out, err = run_cli(capsys, "werner-table", "--grid", "0.25:1:1e-4")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_SHA256

    def test_failure_in_a_later_block_prints_nothing(self, capsys, monkeypatch):
        measure_table, calls = measures.measure_table, []

        def fail_second(ms):
            calls.append(len(ms))
            if len(calls) == 2:
                raise NotConverged("eigh did not converge")
            return measure_table(ms)

        monkeypatch.setattr(measures, "measure_table", fail_second)
        code, out, err = run_cli(capsys, "werner-table", "--grid", "0.25:1:1e-4")
        assert (code, out, err) == (1, "", "error: eigh did not converge\n")
        assert calls == [cli.STATE_BLOCK, 7501 - cli.STATE_BLOCK]

    def test_bad_grid(self, capsys):
        # "0.9:1.5:0.1" and "0.1:0.5:0.1" hold points outside [1/4, 1]: no
        # partial table; the last three have too many points (the last an
        # infinite count) and are refused before any point is built
        bad = ("1.0:0.5:0.1", "0.5:1.0:0", "nan:1.0:0.1", "0.5:inf:0.1", "0.5:1.0",
               "0.9:1.5:0.1", "0.1:0.5:0.1", "0:1:1e-12", "0.25:1:1e-7", "0:1e308:1e-10")
        for grid in bad:
            tracemalloc.start()
            try:
                code, out, err = run_cli(capsys, "werner-table", "--grid", grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")
            assert peak < 2**20


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--pairs", "10"])
        assert exc.value.code == 2

    def test_built_once_per_process(self, capsys, monkeypatch):
        # every call of main reuses the one parser, and none builds another
        parser = cli._parser()

        def rebuilt(*args, **kwargs):
            raise AssertionError("main built a second parser")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", rebuilt)
        for _ in range(2):
            assert run_cli(capsys, "measure", "--family", "singlet")[0] == 0
        assert cli._parser() is parser


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_selftest_reports_library_error_and_goes_on(capsys, monkeypatch):
    def broken():
        raise NotPSD("matrix has eigenvalue -1.000e-03 below -1.0e-10")

    monkeypatch.setattr(selftest, "SUITES", (("broken", broken),) + selftest.SUITES[1:2])
    assert main(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[FAIL] broken: NotPSD: matrix has eigenvalue -1.000e-03 below -1.0e-10"
    assert lines[1] == f"[PASS] {selftest.SUITES[1][0]}"


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 1.00 TiB"), "error: out of memory: Unable to allocate 1.00 TiB"),
        (MemoryError(), "error: out of memory"),
    ],
)
def test_memory_error_is_one_line_error(capsys, monkeypatch, exc, message):
    def exhausted(*_):
        raise exc

    monkeypatch.setattr(cli.sampler, "random_density_batch", exhausted)
    assert run_cli(capsys, "sample", "--seed", "1", "--count", "5") == (1, "", message + "\n")


def test_python_m_entlab_from_checkout(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "entlab", "werner-table", "--grid", "0.5:1.0:0.25"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4


@pytest.mark.parametrize(
    "argv", [["werner-table", "--grid", "0.25:1:1e-5"], ["sample", "--seed", "1", "--count", "20000"]]
)
def test_closed_stdout_exits_1_silently(tmp_path, argv):
    # a reader that takes one line and closes the pipe, as `| head -1` does,
    # while megabytes of rows are still to come: no message, and not exit 2,
    # which is kept for argument errors
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "entlab", *argv],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    header = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (1, "")
    assert header.startswith(("f,", "m00_re,"))
