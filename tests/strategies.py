"""Hypothesis strategies shared by the test modules."""

import math

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

_ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.25, 1.0, -1.0, 1e150, 1e300, -1e300]),
)


@st.composite
def raw_stacks(draw, sizes=st.integers(0, 3), forms=("raw", "hermitian", "gram")):
    """(n, 4, 4) complex stacks: raw, their Hermitian part, or a Gram matrix a a^dagger
    (optionally divided by its trace, "state"), so that the checks pass and the
    eigensolvers and the SVD see extreme input too."""
    n = draw(sizes)
    a = np.empty((n, 4, 4), dtype=complex)
    # set part by part: real + 1j * imag would turn an infinite imaginary part into NaN
    a.real, a.imag = (draw(hnp.arrays(np.float64, (n, 4, 4), elements=_ENTRIES)) for _ in range(2))
    with np.errstate(all="ignore"):
        form = draw(st.sampled_from(forms))
        if form == "hermitian":
            return 0.5 * (a + np.conj(a.transpose(0, 2, 1)))
        if form in ("gram", "state"):
            gram = a @ np.conj(a.transpose(0, 2, 1))
            if form == "state":
                return gram / np.einsum("nii->n", gram).real[:, None, None]
            return gram
        return a


@st.composite
def square_stacks(draw):
    """Complex stacks of d x d matrices, d in 1..6, with up to two leading
    axes, from the same extreme entries as raw_stacks."""
    d = draw(st.integers(1, 6))
    lead = draw(st.lists(st.integers(0, 4), max_size=2))
    shape = (*lead, d, d)
    real, imag = (draw(hnp.arrays(np.float64, shape, elements=_ENTRIES)) for _ in range(2))
    m = np.empty(shape, dtype=complex)
    m.real, m.imag = real, imag  # real + 1j * imag would turn inf into NaN
    return m


# numeric dtypes, LAPACK's and others, and dtypes that are no numbers at all
_DTYPES = (bool, np.int8, np.int64, np.uint8, np.float16, np.float32, np.float64, np.longdouble,
           np.complex64, np.complex128, np.clongdouble, str, object)


@st.composite
def any_arrays(draw):
    """Arrays of every shape up to four axes, (n, 4, 4) stacks and their
    near misses more often, of the numeric and non-numeric _DTYPES, with
    extreme, non-finite and (for str and object) numeric or junk entries."""
    shape = draw(st.one_of(
        st.tuples(st.integers(0, 3), st.sampled_from([3, 4]), st.sampled_from([3, 4])),
        st.sampled_from([(4, 4), (4,), (), (1, 4, 4, 1), (2, 2, 4, 4)]),
        hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5),
    ))
    dtype = draw(st.sampled_from(_DTYPES))
    if dtype in (str, object):
        cells = st.sampled_from(["0.25", "0", "1e308", "nan", "junk", "", 0.25, None])
        values = draw(st.lists(cells, min_size=math.prod(shape), max_size=math.prod(shape)))
        a = np.empty(shape, dtype=object)
        a.reshape(-1)[:] = values
        return a.astype(str) if dtype is str else a
    if np.dtype(dtype).kind in "fc":
        a = np.zeros(shape, dtype=dtype)
        with np.errstate(all="ignore"):
            a.real = draw(hnp.arrays(np.float64, shape, elements=_ENTRIES))
            if a.dtype.kind == "c":
                a.imag = draw(hnp.arrays(np.float64, shape, elements=_ENTRIES))
        return a
    return draw(hnp.arrays(dtype, shape))
