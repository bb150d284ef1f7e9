import io
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entlab import cli, cmat, measures, qstate
from entlab.errors import (
    EntanglementLabError,
    NotHermitian,
    NotPSD,
    ParameterOutOfRange,
    TraceNotOne,
)
from entlab.sampler import RngStream, random_density_batch
from test_measures import raw_stacks


class TestValidation:
    def test_maximally_mixed_valid(self):
        rho = qstate.DensityMatrix(np.eye(4) / 4)
        assert np.allclose(rho.matrix, np.eye(4) / 4)

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOne) as err:
            qstate.DensityMatrix(np.diag([1.0, 1.0, 0.0, 0.0]))
        assert err.value.deviation == pytest.approx(1.0)

    def test_not_psd(self):
        with pytest.raises(NotPSD) as err:
            qstate.DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]))
        assert err.value.deviation == pytest.approx(0.5)

    def test_not_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.5j
        with pytest.raises(NotHermitian):
            qstate.DensityMatrix(m)

    def test_non_finite_entry(self):
        # eigvalsh reads only the lower triangle, so an upper-triangle NaN
        # would otherwise pass every check and fail later inside the SVD
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = np.nan
        with pytest.raises(NotHermitian):
            qstate.DensityMatrix(m)

    @given(raw_stacks(sizes=st.just(1), forms=("raw", "hermitian", "gram", "state")))
    @example(np.array([[[0.25, 1.7e308, 0, 0], [-1.7e308, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]]))
    @settings(max_examples=400, deadline=None)
    def test_raw_input_is_a_state_or_library_error(self, ms):
        # NaN, inf, 1e+-300 and subnormal entries, and a defect beyond the float
        # range; pytest turns any numpy warning into an error, so the check
        # must stay silent as well
        try:
            rho = qstate.DensityMatrix(ms[0])
        except EntanglementLabError:
            return
        m = rho.matrix
        assert np.isfinite(m).all()
        assert cmat.hermiticity_defect(m) <= cmat.TOL.hermiticity
        assert abs(np.trace(m).real - 1.0) <= cmat.TOL.hermiticity
        assert np.linalg.eigvalsh(m)[0] >= -cmat.TOL.psd_clamp

    def test_matrix_is_read_only(self):
        rho = qstate.singlet()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestPureSchmidt:
    def test_alpha_one_is_product_projector(self):
        rho = qstate.pure_schmidt(1.0)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.array_equal(rho.matrix, expected)

    def test_balanced_is_maximally_entangled(self):
        rho = qstate.pure_schmidt(1 / np.sqrt(2))
        assert measures.e_formation(rho) == pytest.approx(1.0, abs=1e-9)

    def test_alpha_06_negativity(self):
        rho = qstate.pure_schmidt(0.6)
        assert measures.e_negative(rho) == pytest.approx(0.48, abs=1e-12)

    @pytest.mark.parametrize("alpha", np.linspace(0.0, 1.0, 21))
    def test_idempotent(self, alpha):
        m = qstate.pure_schmidt(float(alpha)).matrix
        assert np.abs(m @ m - m).max() < 1e-12

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, 2.0])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ParameterOutOfRange):
            qstate.pure_schmidt(alpha)


class TestSinglet:
    def test_trace_exact(self):
        assert np.trace(qstate.singlet().matrix) == 1.0 + 0.0j

    def test_equals_werner_at_one(self):
        assert np.abs(qstate.singlet().matrix - qstate.werner_state(1.0).matrix).max() < 1e-15

    def test_negativity(self):
        assert measures.e_negative(qstate.singlet()) == pytest.approx(0.5, abs=1e-12)


class TestWerner:
    def test_quarter_is_maximally_mixed(self):
        assert np.abs(qstate.werner_state(0.25).matrix - np.eye(4) / 4).max() < 1e-15

    def test_werner_075_negativity(self):
        assert measures.e_negative(qstate.werner_state(0.75)) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("f", [0.1, 0.24, 1.01, -1.0])
    def test_rejects_bad_parameter(self, f):
        with pytest.raises(ParameterOutOfRange):
            qstate.werner_state(f)

    def test_stack_passes_validation(self):
        # werner-table measures werner_stack without validating it: its
        # pinned grid, and both ends of [1/4, 1] with their inner neighbours
        ends = [0.25, np.nextafter(0.25, 1.0), np.nextafter(1.0, 0.0), 1.0]
        for fs in (cli._parse_grid("0.25:1:1e-4"), ends):
            qstate.validate_stack(qstate.werner_stack(fs))

    @pytest.mark.parametrize("f", np.linspace(0.25, 1.0, 26))
    def test_spectrum(self, f):
        w, _ = cmat.hermitian_eig(qstate.werner_state(float(f)).matrix)
        expected = np.sort([f, (1 - f) / 3, (1 - f) / 3, (1 - f) / 3])
        assert np.abs(w - expected).max() < 1e-12


def write_text(ms) -> str:
    buf = io.StringIO()
    qstate.write_stack(buf, ms)
    return buf.getvalue()


def csv_text(columns, template=None) -> str:
    buf = io.StringIO()
    qstate.write_csv(buf, "h", columns, template)
    return buf.getvalue()


def per_value_rows(columns) -> list[str]:
    """The rows as formatting each value on its own writes them."""
    return [",".join(format(x, ".17g") for x in row) for row in zip(*columns)]


_CSV_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]),
)
# 0 to 12 rows of 1 to 4 float64 values each
_CSV_ROWS = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(_CSV_VALUES, min_size=k, max_size=k), max_size=12)
)


_BLOCK_OF_4 = qstate._CSV_VALUES // 4  # rows of four columns write_csv renders at a time


def _decade_values(k: int):
    """Floats of the decade [10^-k, 10^(1 - k)) of the float kernel, either sign."""
    unsigned = st.floats(min_value=10.0**-k, max_value=10.0 ** (1 - k), exclude_max=True)
    return st.tuples(unsigned, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])


def _halfway_values(k: int):
    """m / 2^(17 + k), m odd, in decade k: P = |x| 10^(16 + k) ends in .5."""
    low = math.ceil(2**17 * 0.2**k)
    return st.integers(low // 2, 5 * low - 1).map(lambda j: (2 * j + 1) * 2.0 ** -(17 + k)).filter(
        lambda x: 10.0**-k <= x < 10.0 ** (1 - k)
    )


# the 8 doubles either side of each power of ten 1e-4 .. 1, and literals
# just below 0.1 and 1 that read as their neighbours
_NEAR_POWERS = (10.0 ** -np.arange(5)).view(np.int64)[:, None] + np.arange(-8, 9)
_KERNEL_EDGES = [*_NEAR_POWERS.view(np.float64).ravel().tolist(), 0.099999999999999999, 0.99999999999999994, 0.0]
# decimals of up to 17 digits, rich in zeros, so that digit groups of the
# 17 written end in zeros, are zero, or are zero only after nonzero groups
_SHORT_DECIMALS = st.lists(st.sampled_from("000000123456789"), min_size=1, max_size=20).map(
    lambda digits: float("0." + "".join(digits))
).filter(lambda x: 1e-4 <= x < 1)
_KERNEL_VALUES = st.one_of(
    *[_decade_values(k) for k in range(1, 5)],
    _SHORT_DECIMALS,
    *[_halfway_values(k) for k in range(1, 5)],
    st.sampled_from(_KERNEL_EDGES).flatmap(lambda x: st.sampled_from([x, -x])),
)
# 0 to 40 rows of 1 to 4 such values each
_KERNEL_ROWS = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(_KERNEL_VALUES, min_size=k, max_size=k), max_size=40)
)


class TestCsvWriter:
    @given(_KERNEL_ROWS)
    @example([[0.099999999999999999, 0.99999999999999994, -1e-4, -0.0]])
    @example([[0.1234120005678, -0.1200000000345, 0.10002000030004, 0.0012300045]])  # zero groups after nonzero ones
    @settings(max_examples=300, deadline=None)
    def test_kernel_range_matches_per_value_format(self, rows):
        width = len(rows[0]) if rows else 1
        columns = np.array(rows, dtype=np.float64).reshape(len(rows), width).T
        assert csv_text(columns).splitlines() == ["h", *per_value_rows(columns)]

    def test_no_value_carries(self):
        # P = |x| 10^(16 + k) is largest in each decade at the largest double
        # below its top, and stays over 8 below 10^17: none rounds up to it
        for j in range(4):
            below = np.nextafter(10.0**-j, 0.0)
            below = below if Fraction(below) < Fraction(1, 10**j) else np.nextafter(below, 0.0)
            assert Fraction(10**17) - Fraction(below) * 10 ** (17 + j) > 8

    def test_sampler_values_take_the_kernel(self):
        values = random_density_batch(RngStream(20260810), 5000).view(np.float64).ravel()
        fields, refused = qstate._float_fields(values)
        assert refused.mean() < 0.01
        assert fields.shape == (len(values), 24)

    @given(_CSV_ROWS)
    @example([[np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308]])
    @settings(max_examples=200, deadline=None)
    def test_floats_match_per_value_format(self, rows):
        width = len(rows[0]) if rows else 2
        columns = np.array(rows, dtype=np.float64).reshape(len(rows), width).T
        assert csv_text(columns).splitlines() == ["h", *per_value_rows(columns)]

    def test_int_and_flag_columns(self):
        # numpy int64 counts and flags as in fig4, Python scalars as in summary.csv
        counts = np.array([0, 7, -3, 2**62], dtype=np.int64)
        flags = np.where(counts > 0, "true", "false")
        text = csv_text([np.full(4, 0.1), counts, flags], f"{qstate.CSV_FLOAT},%d,%s")
        assert text.splitlines()[1:] == [
            f"{x:.17g},{n},{f}" for x, n, f in zip([0.1] * 4, counts.tolist(), flags.tolist())
        ]
        assert csv_text([[0.5], [2**70]], f"{qstate.CSV_FLOAT},%d") == f"h\n0.5,{2**70}\n"

    @pytest.mark.parametrize("n", [0, 1, _BLOCK_OF_4 - 1, _BLOCK_OF_4, _BLOCK_OF_4 + 1])
    def test_rows_across_blocks(self, n):
        scales = np.array([1e-100, 1.0, 1e100, 0.01])[:, None]
        columns = np.random.default_rng(n).standard_normal((4, n)) * scales
        text = csv_text(columns)
        assert text.endswith("\n") and text.count("\n") == 1 + n
        assert text.splitlines() == ["h", *per_value_rows(columns)]


class TestCsvRoundTrip:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 20),
        diagonal=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda p: sum(p) > 0),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_keeps_every_bit(self, seed, n, diagonal):
        # sampled states, whose diagonal imaginary parts are zeros, and a
        # diagonal state, whose off-diagonal entries are zeros; each zero
        # takes a drawn sign
        ms = np.concatenate([random_density_batch(RngStream(seed), n), np.diag(diagonal)[None] / sum(diagonal)])
        parts = ms.view(np.float64)
        zeros = parts == 0
        parts[zeros] = np.where(np.random.default_rng(seed).random(zeros.sum()) < 0.5, -0.0, 0.0)
        again = qstate.read_stack(io.StringIO(write_text(ms)))
        assert again.dtype == ms.dtype and again.shape == ms.shape
        assert np.array_equal(again.view(np.uint64), ms.view(np.uint64))

    def test_exact_round_trip(self):
        ms = random_density_batch(RngStream(7), 50)
        again = qstate.read_stack(io.StringIO(write_text(ms)))
        assert again.shape == ms.shape and np.array_equal(again, ms)

    def test_file_round_trip(self, tmp_path):
        ms = random_density_batch(RngStream(8), 10)
        path = tmp_path / "states.csv"
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            qstate.write_stack(fh, ms)
        with open(path, "r", encoding="ascii") as fh:
            loaded = qstate.read_stack(fh)
        assert np.array_equal(loaded, ms)

    def test_rows_match_field_by_field_format(self):
        # the writer's row format against the plain per-entry formatting,
        # signed zeros included
        ms = np.concatenate([random_density_batch(RngStream(9), 5), np.full((1, 4, 4), complex(-0.0, -0.0))])
        header, *rows = write_text(ms).splitlines()
        assert header == qstate.CSV_HEADER
        for m, row in zip(ms, rows):
            assert row == ",".join(f"{v:.17g}" for z in m.ravel() for v in (z.real, z.imag))
        assert rows[-1] == ",".join(["-0"] * 32)

    def test_empty_and_header_only(self):
        assert write_text(np.zeros((0, 4, 4))) == qstate.CSV_HEADER + "\n"
        # the parser warns on input without rows, so it must not see any
        for text in ("", qstate.CSV_HEADER + "\n", "\n\n", " \n\t\n", qstate.CSV_HEADER + "\n  \n", "\r\n\r\n"):
            assert qstate.read_stack(io.StringIO(text)).shape == (0, 4, 4)

    def test_header_fields(self):
        assert len(qstate.CSV_HEADER.split(",")) == 32

    def test_rejects_wrong_width(self):
        with pytest.raises(NotHermitian, match="^line 1: expected 32 CSV fields, got 31$"):
            qstate.read_stack(io.StringIO(",".join(["0.0"] * 31)))

    def test_parse_faults_in_file_order(self):
        # a token that is no float is found before the row's field count,
        # and the first faulty row in the file is reported
        rows = write_text(np.eye(4)[None] / 4).splitlines()
        short_bad = ",".join(["abc"] + ["0"] * 30)
        with pytest.raises(ValueError, match="^line 3: could not convert string to float: 'abc'$"):
            qstate.read_stack(io.StringIO("\n".join(rows + [short_bad, ",".join(["0"] * 31)])))
        with pytest.raises(NotHermitian, match="^line 3: "):
            qstate.read_stack(io.StringIO("\n".join(rows + [",".join(["0"] * 31), short_bad])))

    def test_stack_fault_names_lowest_line(self):
        # line 1 is the header, line 3 blank: the rows are on lines 2, 4, 5, 6
        ms = np.stack([np.eye(4) / 4] * 4).astype(complex)
        ms[2] = np.diag([1.5, -0.5, 0.0, 0.0])  # not PSD
        ms[3] = np.eye(4) / 2  # trace 2

        def with_blank_line(ms):
            header, first, *rest = write_text(ms).splitlines()
            return io.StringIO("\n".join([header, first, "", *rest]))

        with pytest.raises(TraceNotOne, match="^line 6: trace deviates from 1 by 1.000e[+]00$") as err:
            qstate.read_stack(with_blank_line(ms))
        assert err.value.deviation == 1.0
        ms[3] = np.eye(4) / 4
        with pytest.raises(NotPSD, match="^line 5: smallest eigenvalue is -5.000e-01$"):
            qstate.read_stack(with_blank_line(ms))


# spellings of a float that float() reads back as the same float64
_SPELLINGS = {
    "%.17g": lambda x: f"{x:.17g}",
    "repr": repr,
    "%.25e": lambda x: f"{x:.25e}",
    "leading +": lambda x: f"{x:+.17g}",
    "upper-case E": lambda x: f"{x:.17E}",
    "padded": lambda x: f"  {x!r} ",
}


def per_token_stack(text: str) -> np.ndarray:
    """The stack of a CSV text as parsing each field with float() gives it."""
    rows = [line.strip() for line in text.splitlines()[1:]]
    flat = np.array([float(tok) for row in rows if row for tok in row.split(",")])
    return (flat[0::2] + 1j * flat[1::2]).reshape(-1, 4, 4)


_STACK_BLOCK = qstate._CSV_VALUES // 32  # state rows write_stack renders at a time


class TestCsvGrammar:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        spellings=st.lists(st.sampled_from(sorted(_SPELLINGS)), min_size=6 * 32, max_size=6 * 32),
    )
    @settings(max_examples=100, deadline=None)
    def test_spellings_read_as_float_reads_them(self, seed, n, spellings):
        # each field of valid states in its own spelling: the reader's values
        # equal a per-token float() bit for bit, and the states themselves
        ms = random_density_batch(RngStream(seed), n)
        values = ms.view(np.float64).reshape(n, 32)
        fields = [_SPELLINGS[s](x) for s, x in zip(spellings, values.ravel().tolist())]
        rows = [",".join(fields[32 * i : 32 * i + 32]) for i in range(n)]
        text = "\n".join([qstate.CSV_HEADER, *rows]) + "\n"
        got = qstate.read_stack(io.StringIO(text))
        assert got.tobytes() == per_token_stack(text).tobytes()
        assert np.array_equal(got, ms)

    @pytest.mark.parametrize("token", ["1_0", "0.2_5", "\u0661"])
    def test_tokens_float_reads_but_the_parser_rejects(self, token):
        # float() reads digit-group underscores and non-ASCII decimal digits;
        # the reader does not, and names the token as float() names a bad one
        row = ",".join([token] + ["0"] * 31)
        with pytest.raises(ValueError, match=f"^line 2: could not convert string to float: {re.escape(repr(token))}$"):
            qstate.read_stack(io.StringIO("\n".join([qstate.CSV_HEADER, row])))

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_line_endings(self, tmp_path, newline):
        ms = random_density_batch(RngStream(10), 5)
        text = write_text(ms).replace("\n", newline)
        path = tmp_path / "states.csv"
        path.write_bytes(text.encode("ascii"))
        with open(path, "r", encoding="ascii") as fh:
            assert np.array_equal(qstate.read_stack(fh), ms)
        if newline == "\r\n":  # a stream that keeps the CR at each line's end
            assert np.array_equal(qstate.read_stack(io.StringIO(text)), ms)

    def test_whitespace_only_lines(self):
        # skipped like blank lines, and still counted in the line numbers
        ms = np.stack([np.eye(4) / 4] * 3).astype(complex)
        ms[2] = np.eye(4) / 2  # trace 2
        header, *rows = write_text(ms).splitlines()
        text = "\n".join([header, " \t ", rows[0], "   ", rows[1], "\t", rows[2]])
        with pytest.raises(TraceNotOne, match="^line 7: "):
            qstate.read_stack(io.StringIO(text))

    @pytest.mark.parametrize(
        "line",  # rows are on lines 2 .. n + 1
        [2, 3, _STACK_BLOCK + 7, _STACK_BLOCK + 11],
        ids=["first row", "second row", "second write block", "last row"],
    )
    def test_fault_after_many_rows_names_its_line(self, line):
        n = _STACK_BLOCK + 10
        rows = write_text(np.stack([np.eye(4) / 4] * n)).splitlines()
        good = rows[1]

        def with_row(bad, at=line):
            return io.StringIO("\n".join(rows[: at - 1] + [bad] + rows[at:]))

        assert qstate.read_stack(with_row(good)).shape == (n, 4, 4)
        with pytest.raises(ValueError, match=f"^line {line}: could not convert string to float: 'x'$"):
            qstate.read_stack(with_row(good.replace("0.25", "x", 1)))
        for width in (31, 33):
            with pytest.raises(NotHermitian, match=f"^line {line}: expected 32 CSV fields, got {width}$"):
                qstate.read_stack(with_row(",".join(good.split(",")[:31] + ["0"] * (width - 31))))
        with pytest.raises(TraceNotOne, match=f"^line {line}: trace deviates from 1 by 2.500e-01$"):
            qstate.read_stack(with_row(good.replace("0.25", "0.5", 1)))

    def test_first_faulty_row_is_reported(self):
        # a short first row is reported before any fault below it, though the
        # parser reads the rows below it at its width; a short row is reported
        # before a bad token further down
        rows = write_text(np.stack([np.eye(4) / 4] * 20)).splitlines()
        short = ",".join(["0"] * 31)
        for below in (rows[2], short, "y" + rows[2], "y," + short):
            with pytest.raises(NotHermitian, match="^line 2: expected 32 CSV fields, got 31$"):
                qstate.read_stack(io.StringIO("\n".join([rows[0], short, below, *rows[3:]])))
        with pytest.raises(NotHermitian, match="^line 6: expected 32 CSV fields, got 31$"):
            qstate.read_stack(io.StringIO("\n".join(rows[:5] + [short] + rows[6:-1] + ["y" + rows[-1]])))
        with pytest.raises(NotHermitian, match="^line 1: expected 32 CSV fields, got 31$"):
            qstate.read_stack(io.StringIO("\n".join([short] * 20)))


    def test_error_of_the_stream_itself(self, tmp_path):
        # a decode error after rows the parser has read is the stream's, and
        # stays so; a faulty row read before it is still reported first
        rows = write_text(np.stack([np.eye(4) / 4] * 300)).splitlines()
        path = tmp_path / "states.csv"
        path.write_bytes("\n".join(rows).encode("ascii") + b"\n0.25,\xc3\xa9\n")
        with open(path, "r", encoding="ascii") as fh, pytest.raises(UnicodeDecodeError):
            qstate.read_stack(fh)

        def broken(lines):
            yield from lines
            raise ValueError("stream broke")

        with pytest.raises(ValueError, match="^stream broke$"):
            qstate.read_stack(broken(rows))
        with pytest.raises(NotHermitian, match="^line 2: expected 32 CSV fields, got 31$"):
            qstate.read_stack(broken([rows[0], ",".join(["0"] * 31), *rows[2:]]))


class TestValidateStack:
    @staticmethod
    def faulty_matrices():
        nan = np.eye(4, dtype=complex) / 4
        nan[0, 1] = np.nan
        skew = np.eye(4, dtype=complex) / 4
        skew[0, 1] = 0.5j
        huge = np.eye(4, dtype=complex) / 4
        huge[0, 1], huge[1, 0] = 1.7e308, -1.7e308
        return [nan, skew, huge, np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([1.5, -0.5, 0.0, 0.0])]

    def test_error_of_a_matrix_is_its_density_matrix_error(self):
        # in a stack of valid states, each fault raises the class, message
        # and deviation a DensityMatrix of that one matrix raises
        for m in self.faulty_matrices():
            ms = np.concatenate([random_density_batch(RngStream(10), 300), m[None]])
            with pytest.raises(EntanglementLabError) as in_stack:
                qstate.validate_stack(ms)
            with pytest.raises(EntanglementLabError) as alone:
                qstate.DensityMatrix(m)
            assert type(in_stack.value) is type(alone.value)
            assert str(in_stack.value) == str(alone.value)
            assert in_stack.value.deviation == alone.value.deviation or (
                np.isnan(in_stack.value.deviation) and np.isnan(alone.value.deviation)
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_part_of_any_entry(self, value):
        # one non-finite real or imaginary part of any entry of matrix 7:
        # both readers name that matrix, on file line 9 after the header
        ms = random_density_batch(RngStream(12), 20)
        for part in range(32):
            bad = ms.copy()
            bad[7].view(np.float64).reshape(32)[part] = value
            with pytest.raises(NotHermitian, match="^matrix has non-finite entries$"):
                qstate.validate_stack(bad)
            with pytest.raises(NotHermitian, match="^line 9: matrix has non-finite entries$"):
                qstate.read_stack(io.StringIO(write_text(bad)))

    def test_lowest_index_of_the_first_failing_check(self):
        nan, skew, _, trace, psd = self.faulty_matrices()
        ms = np.stack([np.eye(4) / 4, psd, skew, trace, nan]).astype(complex)
        # Hermiticity is checked first: index 2 (0.5 defect) before the NaN at 4
        with pytest.raises(NotHermitian, match="deviates from Hermiticity by 5.000e-01"):
            qstate.validate_stack(ms)
        with pytest.raises(TraceNotOne):
            qstate.validate_stack(ms[[0, 1, 3]])
        with pytest.raises(NotPSD):
            qstate.validate_stack(ms[[0, 1]])

    def test_valid_stack_passes_unchanged(self):
        ms = random_density_batch(RngStream(11), 500)
        assert np.array_equal(qstate.validate_stack(ms), ms)
        assert qstate.validate_stack(np.zeros((0, 4, 4))).shape == (0, 4, 4)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 3), (2, 4, 4, 1)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(NotHermitian, match="expected a"):
            qstate.validate_stack(np.zeros(shape))
