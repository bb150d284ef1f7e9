"""Hypothesis strategies shared by the test modules."""

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
