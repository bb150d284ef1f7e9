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
    parts = [draw(hnp.arrays(np.float64, (n, 4, 4), elements=_ENTRIES)) for _ in range(2)]
    with np.errstate(all="ignore"):
        a = parts[0] + 1j * parts[1]
        form = draw(st.sampled_from(forms))
        if form == "hermitian":
            return 0.5 * (a + np.conj(a.transpose(0, 2, 1)))
        if form in ("gram", "state"):
            gram = a @ np.conj(a.transpose(0, 2, 1))
            if form == "state":
                return gram / np.einsum("nii->n", gram).real[:, None, None]
            return gram
        return a
