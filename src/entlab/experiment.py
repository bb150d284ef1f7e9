"""Monte Carlo comparison of the ordering induced by the two measures.

The run is decomposed into fixed-size shards of pairs, each fed by its own
RNG substream (seed, shard index), and shard results are merged in shard
order.  The decomposition depends only on the configuration, never on the
thread count, so parallel and serial runs with the same seed are identical
byte for byte.  Inside a shard, states are drawn in chunks sized from the
pairs still needed; the stream is sequential, so chunk sizes never change
which states are drawn, kept or paired.  They change C, E_F and E_N only
by rounding: the concurrence and PT kernels depend on the size of the stack
of kept or screened states (see ``measures.concurrence_from_eig`` and
``measures._pt_min``), and the chunk sizes depend only on the
configuration.  ``compare_pair`` and the shards apply one
pairing and tie rule.  Per state, the shards compute the smallest
partial-transpose eigenvalue only where the determinant screen cannot rule
out entanglement, and the concurrence only for kept states, from the
sampler's spectral pairs in its column layout.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from . import measures, sampler
from .errors import EntanglementLabError, SeparableInput
from .measures import MeasureReport
from .qstate import DensityMatrix

S_RANGE = (0.0, 1.5)  # attainable range of S_1 + S_2 for a pair
SHARD_PAIRS = 2048  # pairs per RNG substream
_CHUNK_DRAWS = 8192  # most states drawn per sampling chunk inside a shard
_P_KEPT = 0.36  # slightly below the ensemble's entangled fraction, so chunks overshoot
_CHUNK_MARGIN = 32  # extra draws per chunk, so a shard rarely needs one more
# A shard that has drawn this many times its expected 2 * quota / _P_KEPT
# states without filling its quota gives up with an error.  On the sampler's
# ensemble that takes a run of bad luck beyond any chance, so only a broken
# sampler or a tie_epsilon that makes nearly every pair a tie gets there.
_MAX_DRAW_FACTOR = 64
_SHARD_KEY = 1  # substream tag for shards: (seed, (1, shard))
_SCATTER_KEY = (2, 0)  # substream tag for scatter subsampling

PAIR_DTYPE = np.dtype(
    [(f"{name}{k}", "f8") for k in (1, 2) for name in ("c", "ef", "en", "esum", "s")]
    + [("d_ef", "f8"), ("d_en", "f8"), ("s_total", "f8"), ("violation", "?")]
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one Monte Carlo run."""

    seed: int
    n_pairs: int
    s_bins: int = 30
    tie_epsilon: float = 1e-12
    scatter_points: int = 10_000
    threads: int = 1

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        if self.s_bins < 1:
            raise ValueError("s_bins must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        # every relative difference lies in [-1, 1], so 1 or more makes every pair a tie
        if not 0.0 <= self.tie_epsilon < 1.0:
            raise ValueError("tie_epsilon must lie in [0, 1)")
        if self.scatter_points < 0:
            raise ValueError("scatter_points must be >= 0")


@dataclass(frozen=True)
class PairComparisonRecord:
    """Ordering comparison for one pair of entangled states."""

    report1: MeasureReport
    report2: MeasureReport
    d_ef: float
    d_en: float
    violation: bool
    tie: bool
    s_total: float


@dataclass(frozen=True)
class SHistogram:
    """Pair counts and violation rates over uniform bins of S = S_1 + S_2."""

    edges: np.ndarray
    centers: np.ndarray
    pair_counts: np.ndarray
    violation_counts: np.ndarray
    violation_rates: np.ndarray
    empty: np.ndarray


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregate result of a run; pairs is a structured array (PAIR_DTYPE)."""

    config: ExperimentConfig
    p_entangled: float
    se_entangled: float
    p_violation: float
    se_violation: float
    states_drawn: int
    states_kept: int
    states_discarded: int
    n_pairs: int
    n_ties_excluded: int
    pairs: np.ndarray
    scatter_def_den: np.ndarray  # (k, 2): d_ef, d_en per subsampled pair
    scatter_ef_en: np.ndarray  # (k, 2): e_formation, e_negative per subsampled state
    scatter_c_en: np.ndarray  # (k, 2): concurrence, e_negative per subsampled state
    s_histogram: SHistogram


def _pair_rows(
    first: np.ndarray, second: np.ndarray, tie_epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """PAIR_DTYPE rows and tie mask for pairs of per-state (C, E_F, E_N, E_sum, S) rows.

    A relative difference (a - b) / (a + b) with a zero denominator (both
    values zero) is 0.  A pair is a tie when either difference is within
    tie_epsilon of zero, and a violation when it is no tie and the two
    differences have strictly opposite signs.
    """
    rows = np.empty(len(first), dtype=PAIR_DTYPE)
    for col, name in enumerate(("c", "ef", "en", "esum", "s")):
        rows[f"{name}1"], rows[f"{name}2"] = first[:, col], second[:, col]
    den = first[:, 1:3] + second[:, 1:3]
    d = np.divide(first[:, 1:3] - second[:, 1:3], den, out=np.zeros_like(den), where=den > 0.0)
    tie = (np.abs(d) <= tie_epsilon).any(axis=1)
    rows["d_ef"], rows["d_en"] = d.T
    rows["s_total"] = first[:, 4] + second[:, 4]
    rows["violation"] = ~tie & (d[:, 0] * d[:, 1] < 0.0)
    return rows, tie


def compare_pair(
    rho1: DensityMatrix, rho2: DensityMatrix, tie_epsilon: float = 1e-12
) -> PairComparisonRecord:
    """Compare the ordering the two measures assign to a pair of entangled states.

    Applies the Monte Carlo harness's rule: a pair counts as a violation
    when the relative differences have strictly opposite signs; pairs where
    either difference is within tie_epsilon of zero, or is undefined because
    both values are zero, are flagged as ties and never count.
    """
    report1 = measures.measure_report(rho1)
    report2 = measures.measure_report(rho2)
    if report1.separable or report2.separable:
        raise SeparableInput("compare_pair requires two entangled states")
    stats = np.array([astuple(report1)[:5], astuple(report2)[:5]])
    rows, tie = _pair_rows(stats[:1], stats[1:], tie_epsilon)
    d_ef, d_en, violation, s_total = rows[0][["d_ef", "d_en", "violation", "s_total"]].item()
    return PairComparisonRecord(report1, report2, d_ef, d_en, violation, bool(tie[0]), s_total)


def _histogram_core(
    s: np.ndarray, violation: np.ndarray, n_bins: int, s_range: tuple[float, float] = S_RANGE
) -> SHistogram:
    edges = np.linspace(s_range[0], s_range[1], n_bins + 1)
    pair_counts, _ = np.histogram(s, bins=edges)
    violation_counts, _ = np.histogram(s[violation], bins=edges)
    empty = pair_counts == 0
    rates = np.where(empty, 0.0, violation_counts / np.maximum(pair_counts, 1))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return SHistogram(edges, centers, pair_counts, violation_counts, rates, empty)


def _entangled_state_stats(
    rho: np.ndarray, probs: np.ndarray, cols: np.ndarray, first_draw: int
) -> np.ndarray:
    """One (C, E_F, E_N, E_sum, S, draw index) row per entangled state of a
    chunk in the sampler's layout, in draw order: the (4, 4, n) entry stack
    rho = u diag(probs) u^dagger, the spectra probs (n, 4) and the (4, 4, n)
    column stack cols of the unitaries u.  The chunk's first state has draw
    index first_draw.

    Only the states that pass the determinant screen get their smallest PT
    eigenvalue, and ``measures._pt_entangled`` decides among them.  The
    concurrence comes from the spectral pairs (probs, u), so rho is never
    diagonalized: the kept states' columns are gathered into a (4, 4, m)
    column stack, passed as a transposed view that the concurrence kernel
    works on without a copy, and only their rho into a (m, 4, 4) stack.
    """
    screened, pt_min = measures._pt_screen(rho)
    entangled = measures._pt_entangled(pt_min)
    kept = screened[entangled]
    c = measures.concurrence_from_eig(probs[kept], np.take(cols, kept, axis=2).transpose(2, 1, 0))
    columns = measures._measure_columns(rho.transpose(2, 0, 1)[kept], pt_min[entangled], c)
    return np.column_stack([*columns.values(), kept + first_draw])


def _run_shard(
    seed: int, shard_index: int, quota: int, tie_epsilon: float
) -> tuple[np.ndarray, int, int, int]:
    """Accumulate ``quota`` usable pairs on the shard's own RNG substream.

    Entangled states pair up consecutively in draw order and tie pairs are
    excluded.  Chunks are drawn until the quota is met, each sized from the
    pairs still needed, and the shard ends at the draw that completes its
    final usable pair, so the counters reflect exactly the states consumed.
    A shard draws no new chunk once it has drawn _MAX_DRAW_FACTOR times the
    expected number of states; it raises EntanglementLabError instead.
    Returns (pairs, states drawn, states kept, ties excluded).
    """
    rng = sampler.RngStream(seed, (_SHARD_KEY, shard_index))
    max_draws = int(_MAX_DRAW_FACTOR * 2 * quota / _P_KEPT)
    stats, drawn = np.empty((0, 6)), 0
    while True:
        n = len(stats) - len(stats) % 2
        rows, tie = _pair_rows(stats[0:n:2], stats[1:n:2], tie_epsilon)
        need = quota - int(np.count_nonzero(~tie))
        if need <= 0:
            break
        if drawn >= max_draws:
            raise EntanglementLabError(
                f"shard {shard_index} drew {drawn} states and still lacks {need} of "
                f"{quota} usable pairs ({len(stats)} entangled, {int(tie.sum())} tie pairs)"
            )
        size = min(_CHUNK_DRAWS, int(2 * need / _P_KEPT) + _CHUNK_MARGIN)
        chunk = sampler._spectral_stacks(rng, size)
        stats = np.concatenate([stats, _entangled_state_stats(*chunk, drawn)])
        drawn += size
    last = int(np.searchsorted(np.cumsum(~tie), quota))  # the pair that fills the quota
    used = slice(0, last + 1)
    states_drawn = int(stats[2 * last + 1, 5]) + 1  # through that pair's second state
    return rows[used][~tie[used]], states_drawn, 2 * last + 2, int(tie[used].sum())


def run_experiment(cfg: ExperimentConfig) -> ExperimentSummary:
    """Run the full comparison: sample, discard separable states, pair, count.

    Deterministic for a fixed configuration; the thread count changes only
    how shards are scheduled, never any output value.
    """
    quotas = [min(SHARD_PAIRS, cfg.n_pairs - i) for i in range(0, cfg.n_pairs, SHARD_PAIRS)]

    def shard(index):
        return _run_shard(cfg.seed, index, quotas[index], cfg.tie_epsilon)

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(shard, range(len(quotas))))
    else:
        results = [shard(index) for index in range(len(quotas))]

    shard_pairs, drawn, kept, ties = zip(*results)
    pairs = np.concatenate(shard_pairs)
    states_drawn, states_kept, n_ties = sum(drawn), sum(kept), sum(ties)
    n_pairs = len(pairs)

    p_ent = states_kept / states_drawn
    p_vio = float(pairs["violation"].sum()) / n_pairs

    scatter_rng = sampler.RngStream(cfg.seed, _SCATTER_KEY)
    k_pairs = min(cfg.scatter_points, n_pairs)
    idx = scatter_rng.subsample_indices(n_pairs, k_pairs)
    scatter_def_den = np.column_stack([pairs["d_ef"][idx], pairs["d_en"][idx]])

    # Per-state scatters: states of each pair interleaved, preserving run order.
    k_states = min(cfg.scatter_points, 2 * n_pairs)
    idx_s = scatter_rng.subsample_indices(2 * n_pairs, k_states)
    c, ef, en = (
        np.column_stack([pairs[f"{name}1"], pairs[f"{name}2"]]).ravel()[idx_s]
        for name in ("c", "ef", "en")
    )

    return ExperimentSummary(
        config=cfg,
        p_entangled=p_ent,
        se_entangled=float(np.sqrt(p_ent * (1.0 - p_ent) / states_drawn)),
        p_violation=p_vio,
        se_violation=float(np.sqrt(p_vio * (1.0 - p_vio) / n_pairs)),
        states_drawn=states_drawn,
        states_kept=states_kept,
        states_discarded=states_drawn - states_kept,
        n_pairs=n_pairs,
        n_ties_excluded=n_ties,
        pairs=pairs,
        scatter_def_den=scatter_def_den,
        scatter_ef_en=np.column_stack([ef, en]),
        scatter_c_en=np.column_stack([c, en]),
        s_histogram=_histogram_core(pairs["s_total"], pairs["violation"], cfg.s_bins),
    )


def _fmt(x) -> str:
    return f"{x:.17g}"


def write_csvs(summary: ExperimentSummary, outdir) -> dict[str, str]:
    """Write fig1..fig4.csv and summary.csv into outdir; returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = {}

    def emit(name: str, header: str, rows) -> None:
        path = os.path.join(outdir, name)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        paths[name] = path

    for name, header, xy in (
        ("fig1.csv", "d_en,d_ef", summary.scatter_def_den[:, ::-1]),
        ("fig2.csv", "e_formation,e_negative", summary.scatter_ef_en),
        ("fig3.csv", "concurrence,e_negative", summary.scatter_c_en),
    ):
        emit(name, header, ((_fmt(x), _fmt(y)) for x, y in xy))
    hist = summary.s_histogram
    emit(
        "fig4.csv",
        "bin_center,pair_count,violation_count,violation_rate,empty",
        (
            (_fmt(center), str(n), str(n_vio), _fmt(rate), "true" if empty else "false")
            for center, n, n_vio, rate, empty in zip(
                hist.centers, hist.pair_counts, hist.violation_counts, hist.violation_rates, hist.empty
            )
        ),
    )
    cfg = summary.config
    fields = {
        "p_entangled": _fmt(summary.p_entangled),
        "se_p_entangled": _fmt(summary.se_entangled),
        "p_violation": _fmt(summary.p_violation),
        "se_p_violation": _fmt(summary.se_violation),
        "states_drawn": str(summary.states_drawn),
        "states_kept": str(summary.states_kept),
        "states_discarded": str(summary.states_discarded),
        "n_pairs": str(summary.n_pairs),
        "n_ties_excluded": str(summary.n_ties_excluded),
        "seed": str(cfg.seed),
        "s_bins": str(cfg.s_bins),
        "tie_epsilon": _fmt(cfg.tie_epsilon),
        "scatter_points": str(cfg.scatter_points),
    }
    emit("summary.csv", ",".join(fields), [fields.values()])
    return paths
