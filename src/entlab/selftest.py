"""Fast runtime self-checks over every module's invariants.

Used by the ``selftest`` CLI command; the pytest suite runs the same
invariants at full scale.  Every check raises SelfTestFailure through
``_check``, so that it holds under ``python -O`` too.
"""

from __future__ import annotations

import io

import numpy as np

from . import cmat, experiment, measures, qstate, sampler
from .errors import EntanglementLabError, SelfTestFailure


def _check(holds, message: str) -> None:
    """Raise SelfTestFailure(message) unless holds is true."""
    if not holds:
        raise SelfTestFailure(message)


def _random_hermitian(rng: sampler.RngStream, n: int) -> np.ndarray:
    u = rng.uniforms(n, 4, 4)
    v = rng.uniforms(n, 4, 4)
    a = (u - 0.5) + 1j * (v - 0.5)
    return a + np.conj(a.transpose(0, 2, 1))


def _random_kets(rng: sampler.RngStream, n: int, dim: int = 4) -> np.ndarray:
    kets = rng.uniforms(n, dim) - 0.5 + 1j * (rng.uniforms(n, dim) - 0.5)
    return kets / np.linalg.norm(kets, axis=1)[:, None]


def check_linalg(n: int = 2000) -> None:
    rng = sampler.RngStream(101)
    herm = _random_hermitian(rng, n)
    w, u = cmat.hermitian_eig(herm)
    u_dag = np.conj(u.transpose(0, 2, 1))
    _check(np.all(np.diff(w, axis=1) >= 0), "eigenvalues are not ascending")
    _check(np.abs(u @ u_dag - np.eye(4)).max() < 1e-10, "eigenvectors are not unitary")
    _check(np.abs((u * w[:, None, :]) @ u_dag - herm).max() < cmat.TOL.reconstruction, "eigh does not reconstruct")
    traces = np.einsum("nii->n", herm).real
    _check(np.abs(w.sum(axis=1) - traces).max() < 1e-10, "eigenvalues do not sum to the trace")
    pt = cmat.partial_transpose_b(herm)
    _check(np.array_equal(cmat.partial_transpose_b(pt), herm), "partial transpose is not an involution")
    _check(np.array_equal(np.einsum("nii->n", pt), np.einsum("nii->n", herm)), "partial transpose moves the trace")
    g = rng.uniforms(n, 4, 4) - 0.5 + 1j * (rng.uniforms(n, 4, 4) - 0.5)
    psd = g @ np.conj(g.transpose(0, 2, 1))
    psd /= np.einsum("nii->n", psd).real[:, None, None]
    s = cmat.psd_sqrt(psd)
    _check(np.abs(s @ s - psd).max() < cmat.TOL.reconstruction, "psd_sqrt squared is not the matrix")


def check_states(n_grid: int = 26) -> None:
    for f in np.linspace(0.25, 1.0, n_grid):
        rho = qstate.werner_state(float(f))
        w, _ = cmat.hermitian_eig(rho.matrix)
        expect = np.sort([f, (1 - f) / 3, (1 - f) / 3, (1 - f) / 3])
        _check(np.abs(w - expect).max() < 1e-12, f"Werner state F={f} has the wrong spectrum")
    for alpha in np.linspace(0.0, 1.0, n_grid):
        rho = qstate.pure_schmidt(float(alpha))
        idempotent = np.abs(rho.matrix @ rho.matrix - rho.matrix).max() < 1e-12
        _check(idempotent, f"pure state alpha={alpha} is no projector")
    singlet = np.abs(qstate.singlet().matrix - qstate.werner_state(1.0).matrix).max() < 1e-15
    _check(singlet, "Werner F=1 is no singlet")


def check_measures(n: int = 2000) -> None:
    for f in np.linspace(0.5, 1.0, 26):
        rho = qstate.werner_state(float(f))
        _check(abs(measures.concurrence(rho) - (2 * f - 1)) < 1e-10, f"Werner F={f} concurrence is not 2F - 1")
        _check(abs(measures.e_negative(rho) - (f - 0.5)) < 1e-10, f"Werner F={f} E_N is not F - 1/2")
    kets = _random_kets(sampler.RngStream(103), n)
    pures = kets[:, :, None] * np.conj(kets[:, None, :])
    # the whole stack takes the concurrence kernel, a slice below _C_MIN_STACK
    # LAPACK's route, whose (sy x sy) signs no Werner state can see
    for ms in (pures, pures[: measures._C_MIN_STACK // 4]):
        pure_table = measures.measure_table(ms)
        excess = np.abs(pure_table["concurrence"] - 2 * pure_table["e_negative"]).max()
        _check(excess < 1e-9, f"{len(ms)} pure states: C differs from 2 E_N by {excess:.3e}")
    rhos = sampler.random_density_batch(sampler.RngStream(104), n)
    table = measures.measure_table(rhos)
    _check(np.all(table["concurrence"] >= 2 * table["e_negative"] - 1e-9), "a sampled state has C < 2 E_N")
    sep = table["separable"]
    _check(np.array_equal(sep, table["e_negative"] <= measures.EPS_SEP), "separable flags disagree with E_N")


def _near_product_pures(n: int = 512) -> np.ndarray:
    """Pure states alpha|ab> + sqrt(1 - alpha^2)|a'b'>, alpha in [0, 0.01], in
    random product bases, where three PT eigenvalues lie within alpha of 0."""
    rng = sampler.RngStream(107)
    a, b = _random_kets(rng, n, 2), _random_kets(rng, n, 2)
    a_perp = np.column_stack([-np.conj(a[:, 1]), np.conj(a[:, 0])])
    b_perp = np.column_stack([-np.conj(b[:, 1]), np.conj(b[:, 0])])
    alpha = np.linspace(0.0, 0.01, n)[:, None]
    kets = alpha * np.einsum("ni,nj->nij", a, b).reshape(n, 4)
    kets += np.sqrt(1.0 - alpha**2) * np.einsum("ni,nj->nij", a_perp, b_perp).reshape(n, 4)
    return kets[:, :, None] * np.conj(kets[:, None, :])


def check_near_product_pt(n: int = 512) -> None:
    """E_N of ``_near_product_pures`` matches eigvalsh: the PT kernel must
    refuse what it cannot certify."""
    pures = _near_product_pures(n)
    _check(n >= measures._PT_MIN_STACK, "stack too small for the PT kernel")
    lam = cmat._lapack(np.linalg.eigvalsh, cmat.partial_transpose_b(pures))[:, 0]
    e_negative = measures.measure_table(pures)["e_negative"]
    worst = np.abs(e_negative - np.maximum(0.0, -lam)).max()
    _check(worst <= 1e-14, f"E_N differs from eigvalsh by {worst:.3e}")


def check_cancelling_minors(n: int = 512) -> None:
    """Concurrence of near-rank-2 states with spectrum (0.6, 0.4 - 2e-9,
    1e-9, 1e-9) whose first two eigenvectors span the Bell state
    (|00> + |11>)/sqrt(2) and |01>, rotated into each other and into random
    local bases: W's 2x2 block on that span is singular, so the minors behind
    e2 cancel and the concurrence kernel must refuse every state, which then
    gets LAPACK's bits."""
    rng = sampler.RngStream(112)
    a, b = _random_kets(rng, n, 2), _random_kets(rng, n, 2)
    su2 = [np.stack([k, np.column_stack([-np.conj(k[:, 1]), np.conj(k[:, 0])])], axis=1) for k in (a, b)]
    local = np.einsum("nij,nkl->nikjl", *su2).reshape(n, 4, 4)
    theta = 0.2 + 1.17 * rng.uniforms(n)
    basis = np.zeros((n, 4, 4))
    basis[:, 0, 0] = basis[:, 3, 0] = np.cos(theta) / np.sqrt(2.0)
    basis[:, 1, 0] = np.sin(theta)
    basis[:, 0, 1] = basis[:, 3, 1] = -np.sin(theta) / np.sqrt(2.0)
    basis[:, 1, 1] = np.cos(theta)
    basis[:, 2, 2] = 1.0
    basis[:, 0, 3], basis[:, 3, 3] = np.sqrt(0.5), -np.sqrt(0.5)
    u = local @ basis
    probs = np.tile([0.6, 0.4 - 2e-9, 1e-9, 1e-9], (n, 1))
    _check(n >= measures._C_MIN_STACK, "stack too small for the concurrence kernel")
    same = np.array_equal(measures.concurrence_from_eig(probs, u), measures._lapack_concurrence(probs, u))
    _check(same, "concurrence kernel differs from LAPACK on cancelling minors")


def check_sampler(n: int = 2000) -> None:
    a = sampler.random_density_batch(sampler.RngStream(105), n)
    b = sampler.random_density_batch(sampler.RngStream(105), n)
    _check(np.array_equal(a, b), "one seed drew two different stacks")
    qstate._checked_eig(a)
    rho, probs, cols = sampler._spectral_stacks(sampler.RngStream(106), n)
    u = cols.transpose(2, 1, 0)
    _check(np.abs(u @ np.conj(u.transpose(0, 2, 1)) - np.eye(4)).max() < 1e-12, "sampled U is not unitary")
    w, _ = cmat.hermitian_eig(rho.transpose(2, 0, 1))
    _check(np.abs(w - np.sort(probs, axis=1)).max() < 1e-10, "sampled rho does not have its drawn spectrum")


def check_experiment(n_pairs: int = 256) -> None:
    cfg1 = experiment.ExperimentConfig(seed=108, n_pairs=n_pairs)
    cfg2 = experiment.ExperimentConfig(seed=108, n_pairs=n_pairs, threads=2)
    s1 = experiment.run_experiment(cfg1)
    s2 = experiment.run_experiment(cfg2)
    _check(np.array_equal(s1.pairs, s2.pairs), "threads=2 changed the pairs")
    _check(s1.p_entangled == s2.p_entangled, "threads=2 changed p_entangled")
    _check(s1.n_pairs == n_pairs, f"run made {s1.n_pairs} pairs, not {n_pairs}")
    _check(s1.states_drawn == s1.states_kept + s1.states_discarded, "drawn != kept + discarded")
    _check(s1.states_kept == 2 * (s1.n_pairs + s1.n_ties_excluded), "kept != 2 (pairs + ties)")


def check_harness_rows(n: int = 2000) -> None:
    chunk = sampler._spectral_stacks(sampler.RngStream(109), n)
    exact = cmat.hermiticity_defects(chunk[0].transpose(2, 0, 1)).max(initial=0.0) == 0.0
    _check(exact, "sampled rho is not exactly Hermitian")
    screened, pt, det = measures._pt_screen(chunk[0])
    pt_min = measures._pt_min(pt, det)
    _check(len(screened) >= measures._PT_MIN_STACK, "screened stack too small for the PT kernel")
    pts = cmat.partial_transpose_b(chunk[0].transpose(2, 0, 1)[screened])
    worst = np.abs(pt_min - cmat._lapack(np.linalg.eigvalsh, pts)[:, 0]).max()
    _check(worst <= 1e-15, f"screen's lambda_min differs from eigvalsh by {worst:.3e}")
    stats = experiment._chunk_stats(sampler.RngStream(109), n, 0)
    table = measures.measure_table(chunk[0].transpose(2, 0, 1))
    entangled = ~table["separable"]
    _check(np.array_equal(stats[:, 5], np.nonzero(entangled)[0]), "harness keeps other states than measure_table")
    names = ("concurrence", "e_formation", "e_negative", "e_sum", "linear_entropy")
    for col, name in enumerate(names):
        _check(np.abs(stats[:, col] - table[name][entangled]).max() <= 1e-12, f"harness {name} differs")


def cn_region_excess(table: dict[str, np.ndarray]) -> float:
    """How far the (C, N) points of a measure table, N = 2 E_N, lie outside
    the region two-qubit states fill, sqrt((1 - C)^2 + C^2) - (1 - C) <= N <= C
    (Verstraete, Audenaert, Dehaene & De Moor, J. Phys. A 34, 10327 (2001));
    0.0 for points inside it."""
    c, n = table["concurrence"], 2.0 * table["e_negative"]
    lower = np.sqrt((1.0 - c) ** 2 + c * c) - (1.0 - c)
    return float(max(0.0, (lower - n).max(initial=0.0), (n - c).max(initial=0.0)))


def check_cn_region(n: int = 2000) -> None:
    rhos = sampler.random_density_batch(sampler.RngStream(110), n)
    kets = _random_kets(sampler.RngStream(111), n)
    eps = np.logspace(-12, -2, n)[:, None, None]
    near_pure = (1.0 - eps) * (kets[:, :, None] * np.conj(kets[:, None, :])) + eps * rhos
    werner = qstate.werner_stack(np.linspace(0.25, 1.0, max(n // 4, measures._C_MIN_STACK)))
    for name, ms in (("sampler", rhos), ("near-pure", near_pure), ("Werner", werner)):
        excess = cn_region_excess(measures.measure_table(ms))
        _check(excess <= 1e-12, f"{name} states leave the (C, N) region by {excess:.3e}")


def _csv_probe_values(n: int = 2000) -> np.ndarray:
    """Float64 values at the edges of write_csv's float kernel, both signs:
    n log-uniform values in each decade of [1e-4, 1), the 8 doubles either
    side of each power of ten 1e-4 .. 1, n halfway cases m / 2^(17 + k)
    (m odd) in each decade [10^-k, 10^(1 - k)), where CSV_FLOAT rounds half to
    even, and zeros and values the kernel leaves to %."""
    rng = sampler.RngStream(113)
    k = np.arange(1, 5)[:, None]
    in_decades = 10.0 ** -(k - rng.uniforms(4, n))
    powers = 10.0 ** -np.arange(5)
    near_powers = (powers.view(np.int64)[:, None] + np.arange(-8, 9)).view(np.float64)
    m = np.floor(2.0**17 * 0.2**k * (1.0 + 9.0 * rng.uniforms(4, n))).astype(np.int64) | 1
    halfway = m * 2.0 ** -(17 + k)
    halfway = halfway[(halfway >= 10.0**-k) & (halfway < 10.0 ** (1 - k))]  # the few m past an end
    edge_cases = np.array([0.0, 1.0, 1.5, 99.5, 5e-5, 1e-300, 5e-324, 1.7976931348623157e308, np.inf, np.nan])
    values = np.concatenate([a.ravel() for a in (in_decades, near_powers, halfway, edge_cases)])
    return np.concatenate([values, -values])


def check_csv_format(n: int = 2000) -> None:
    """write_csv's float kernel against CSV_FLOAT on _csv_probe_values,
    with this numpy's log10 and rounding, written as one column and as the
    32-field rows of write_stack."""
    values = _csv_probe_values(n)
    padded = np.concatenate([values, np.zeros(-len(values) % 32)])
    column, stack = io.StringIO(), io.StringIO()
    qstate.write_csv(column, "x", [values])
    qstate.write_stack(stack, [padded.view(complex).reshape(-1, 4, 4)])
    for text, width, want in ((column, 1, values), (stack, 32, padded)):
        rows = [row.split(",") for row in text.getvalue().split("\n")[1:-1]]
        shape = (len(rows), *{len(row) for row in rows})
        _check(shape == (len(want) // width, width), f"write_csv wrote {shape} fields for {len(want)} values")
        for field, value in zip((field for row in rows for field in row), want.tolist()):
            expected = qstate.CSV_FLOAT % value
            _check(field == expected, f"write_csv writes {field!r} for {value!r}, % writes {expected!r}")


def _csv_parse_rows(n: int = 2000) -> list[str]:
    """Rows of fields at the edges of read_stack's kernel: CSV_FLOAT of
    _csv_probe_values, and for n doubles x in [1e-4, 1), the powers of two
    there and the doubles below them, either sign, the 15- to 17-digit
    decimals nearest the midpoint of x and the next double, the 17-digit one
    also with 1 to 3 zeros or a 1 added (18 to 20 digits, for float)."""
    import decimal  # here, so that no command but selftest pays for its import

    twos = 2.0 ** -np.arange(1, 14)  # where the ulp halves below
    x = np.concatenate([10.0 ** -(4.0 * sampler.RngStream(114).uniforms(n)), twos, np.nextafter(twos, 0.0)])
    context = decimal.Context(prec=80)  # the midpoints' expansions are exact
    fields = [qstate.CSV_FLOAT % v for v in _csv_probe_values(n // 4).tolist()]
    for a, b in zip(x.tolist(), np.nextafter(x, 1.0).tolist()):
        mid = context.divide(context.add(decimal.Decimal(a), decimal.Decimal(b)), 2)
        near = [f"{context.quantize(mid, decimal.Decimal(f'1e{mid.adjusted() + 1 - k}')):f}" for k in (15, 16, 17)]
        near += [near[-1] + tail for tail in ("0", "00", "000", "1")]
        fields += near + ["-" + f for f in near]
    fields += ["0"] * (-len(fields) % 32)
    return [",".join(fields[i : i + 32]) for i in range(0, len(fields), 32)]


def check_csv_parse(n: int = 2000) -> None:
    """read_stack's fields against float on _csv_parse_rows, bit for bit,
    and write_stack's states read back, signed zeros included."""
    rows = _csv_parse_rows(n)
    values = qstate._convert_block(rows, range(1, len(rows) + 1))
    for field, value in zip(",".join(rows).split(","), values.ravel().tolist()):
        _check(repr(value) == repr(float(field)), f"read_stack reads {field!r} as {value!r}, float as {float(field)!r}")
    ms = sampler.random_density_batch(sampler.RngStream(115), 600)
    ms.imag[:, range(4), range(4)] = -0.0
    text = io.StringIO()
    qstate.write_stack(text, [ms])
    again = qstate.read_stack(io.StringIO(text.getvalue()))
    _check(np.array_equal(again.view(np.uint64), ms.view(np.uint64)), "read_stack changes a state write_stack wrote")


SUITES = (
    ("linear algebra invariants", check_linalg),
    ("state constructors", check_states),
    ("measure oracles", check_measures),
    ("PT kernel on near-product pure states", check_near_product_pt),
    ("concurrence kernel on cancelling minors", check_cancelling_minors),
    ("sampler determinism and spectra", check_sampler),
    ("experiment determinism and counting", check_experiment),
    ("harness rows match measure_table", check_harness_rows),
    ("(C, N) within the two-qubit region", check_cn_region),
    ("CSV float kernel against %", check_csv_format),
    ("CSV reader against float", check_csv_parse),
)


def run_selftest(verbose: bool = True) -> bool:
    """Run every suite; returns True iff all pass.

    A suite that fails a check or raises a library error is reported as
    failed, and the remaining suites still run.
    """
    ok = True
    for name, fn in SUITES:
        try:
            fn()
        except EntanglementLabError as exc:
            ok = False
            if verbose:
                print(f"[FAIL] {name}: {type(exc).__name__}: {exc}")
        else:
            if verbose:
                print(f"[PASS] {name}")
    return ok
