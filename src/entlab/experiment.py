"""Monte Carlo comparison of the ordering induced by the two measures.

The run is decomposed into fixed-size shards of pairs, each fed by its own
RNG substream (seed, shard index), and each shard writes its pairs into its
own slice of the run's one PAIR_DTYPE array, in shard order, so that a run
holds a single copy of its pair rows.  The decomposition depends only on
the configuration, never on the thread count, so parallel and serial runs
with the same seed are identical byte for byte.  Inside a shard, states are
drawn in chunks sized only from the pairs still needed, so the first chunk
covers the whole quota with a small margin and a shard usually draws one
chunk (47 of the 49 shards of the 10^5-pair acceptance run); the stream is
sequential, so chunk sizes never change which states are drawn, kept or
paired, nor any bit of a state's C, E_F and E_N, which are a function of
that state alone (see ``measures``).  ``compare_pair`` and the shards apply
one pairing and tie rule, ``_pair_rows`` with the fixed threshold
TIE_EPSILON; it, the histogram's S_BINS and the scatter size SCATTER_POINTS
are echoed in ``summary.csv``.  A chunk first draws its spectra and angle
uniforms (``sampler._draw_spectra``) and builds U and rho only for the draws
whose spectrum does not prove every state of its unitary orbit separable
(``_separable_orbit``, after Verstraete, Audenaert & De Moor, PRA 64, 012316
(2001)); about a third are skipped, and the margin of that test makes the
determinant screen drop each of them too, so skipping changes no output bit.
The built states are measured from the sampler's spectral pairs by
``measures._spectral_table``, the route of every state the library
measures: the smallest partial-transpose eigenvalue only where the
determinant screen cannot rule out entanglement, and the concurrence only
for NPT states.  ``write_csvs`` writes the run's five CSV files
through ``qstate.write_csv``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import measures, sampler
from .errors import EntanglementLabError, ParameterOutOfRange, SeparableInput
from .measures import MeasureReport
from .qstate import DensityMatrix, write_csv

S_RANGE = (0.0, 1.5)  # attainable range of S_1 + S_2 for a pair
# A pair is a tie when either relative difference lies within TIE_EPSILON of zero.
TIE_EPSILON = 1e-12
S_BINS = 30  # bins of the S histogram (fig4.csv)
SCATTER_POINTS = 10_000  # most points per scatter CSV
SHARD_PAIRS = 2048  # pairs per RNG substream
# Most pairs and threads a run accepts: 10^6 pairs hold one array of about
# 105 MB of pair rows, which the shards fill in place, and a run starts up to
# min(threads, shards) threads, each with one shard's chunk in flight, about
# 6.3 MiB (traced) at its peak.
MAX_PAIRS = 10**6
MAX_THREADS = 64
_P_KEPT = 0.36  # slightly below the ensemble's entangled fraction, so chunks overshoot
_CHUNK_MARGIN = 32  # extra draws per chunk, so a shard rarely needs one more
# A shard that has drawn this many times its expected 2 * quota / _P_KEPT
# states without filling its quota gives up with an error.  On the sampler's
# ensemble that takes a run of bad luck beyond any chance, so only a broken
# sampler gets there.
_MAX_DRAW_FACTOR = 64
# Smallest lower bound on lambda_min(rho^Gamma) over a spectrum's unitary
# orbit at which a draw is skipped unbuilt: (2e-4)^3 (1 - 6e-4) = 8.0e-12
# exceeds measures.DET_SCREEN, so the screen would drop it; see _separable_orbit.
_ORBIT_MARGIN = 2e-4
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
    threads: int = 1

    def __post_init__(self):
        for name, most in (("seed", None), ("n_pairs", MAX_PAIRS), ("threads", MAX_THREADS)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ParameterOutOfRange(f"{name} must be an integer, got {value!r}")
            if most is not None and not 1 <= value <= most:
                raise ParameterOutOfRange(f"{name} must lie in [1, {most}], got {value}")
        if self.seed < 0:  # refused here, not by the first shard's RngStream
            raise ParameterOutOfRange(f"seed must be a non-negative integer, got {self.seed}")


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


def _pair_rows(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PAIR_DTYPE rows and tie mask for pairs of per-state (C, E_F, E_N, E_sum, S) rows.

    A relative difference (a - b) / (a + b) with a zero denominator (both
    values zero) is 0.  A pair is a tie when either difference is within
    TIE_EPSILON of zero, and a violation when it is no tie and the two
    differences have strictly opposite signs.
    """
    rows = np.empty(len(first), dtype=PAIR_DTYPE)
    for col, name in enumerate(("c", "ef", "en", "esum", "s")):
        rows[f"{name}1"], rows[f"{name}2"] = first[:, col], second[:, col]
    den = first[:, 1:3] + second[:, 1:3]
    d = np.divide(first[:, 1:3] - second[:, 1:3], den, out=np.zeros_like(den), where=den > 0.0)
    tie = (np.abs(d) <= TIE_EPSILON).any(axis=1)
    rows["d_ef"], rows["d_en"] = d.T
    rows["s_total"] = first[:, 4] + second[:, 4]
    rows["violation"] = ~tie & (d[:, 0] * d[:, 1] < 0.0)
    return rows, tie


def compare_pair(rho1: DensityMatrix, rho2: DensityMatrix) -> PairComparisonRecord:
    """Compare the ordering the two measures assign to a pair of entangled states.

    Applies the Monte Carlo harness's rule: a pair counts as a violation
    when the relative differences have strictly opposite signs; pairs where
    either difference is within TIE_EPSILON of zero, or is undefined because
    both values are zero, are flagged as ties and never count.
    """
    (report1, report2), table = measures._report_table(rho1, rho2)
    if table.pop("separable").any():
        raise SeparableInput("compare_pair requires two entangled states")
    stats = np.column_stack(list(table.values()))  # (C, E_F, E_N, E_sum, S) per state
    rows, tie = _pair_rows(stats[:1], stats[1:])
    d_ef, d_en, violation, s_total = rows[0][["d_ef", "d_en", "violation", "s_total"]].item()
    return PairComparisonRecord(report1, report2, d_ef, d_en, violation, bool(tie[0]), s_total)


def _histogram_core(s: np.ndarray, violation: np.ndarray) -> SHistogram:
    edges = np.linspace(*S_RANGE, S_BINS + 1)
    pair_counts, _ = np.histogram(s, bins=edges)
    violation_counts, _ = np.histogram(s[violation], bins=edges)
    empty = pair_counts == 0
    rates = np.where(empty, 0.0, violation_counts / np.maximum(pair_counts, 1))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return SHistogram(edges, centers, pair_counts, violation_counts, rates, empty)


def _separable_orbit(probs: np.ndarray) -> np.ndarray:
    """True for each spectrum of probs (n, 4) whose whole unitary orbit the
    determinant screen of ``_chunk_stats`` drops, so that its draw
    need not be built.

    Over the orbit of rho = U diag(l) U^dagger, l1 >= l2 >= l3 >= l4, the
    smallest eigenvalue of rho^Gamma is at least
    b = (l2 + l4 - hypot(l1 - l3, l2 - l4)) / 2, and equals it when U takes
    l1..l4 to the eigenvectors (|00> + |11>)/sqrt(2), |01>,
    (|00> - |11>)/sqrt(2) and |10> (Verstraete, Audenaert & De Moor, PRA
    64, 012316 (2001)); so l1 - l3 <= 2 sqrt(l2 l4), i.e. b >= 0, makes every
    state of the orbit separable.  A draw is skipped when b >= _ORBIT_MARGIN.
    The sampler's rho is exactly Hermitian and within about 1e-14 of a state
    with spectrum probs, and b is computed within about 1e-15, so every
    eigenvalue of rho^Gamma exceeds m = _ORBIT_MARGIN - 1e-13 (Weyl), and
    they sum to tr rho = 1 up to rounding.  Their product, the true
    det(rho^Gamma), is then at least m^3 (1 - 3m) = 8.0e-12 (the product's
    logarithm is concave, so its minimum lies at a vertex, three eigenvalues
    at m), and the screen computes it within about 2e-15 (see
    ``measures._pt_screen``), above DET_SCREEN = 1e-12.  So the screen drops
    every skipped state too, and the kept states and their values are those
    of the whole chunk, bit for bit.  In particular no state the EPS_SEP
    rule calls entangled is skipped.  On the sampler's ensemble b >= 0 holds
    for 32.7% of draws, b >= _ORBIT_MARGIN for 32.6%.  The spectra are put
    in descending order by a five-comparator network of minima and maxima on
    their (n,) columns.
    """
    l1, l2, l3, l4 = probs.T
    l1, l2 = np.maximum(l1, l2), np.minimum(l1, l2)
    l3, l4 = np.maximum(l3, l4), np.minimum(l3, l4)
    l1, l3 = np.maximum(l1, l3), np.minimum(l1, l3)
    l2, l4 = np.maximum(l2, l4), np.minimum(l2, l4)
    l2, l3 = np.maximum(l2, l3), np.minimum(l2, l3)
    return l2 + l4 - np.hypot(l1 - l3, l2 - l4) >= 2.0 * _ORBIT_MARGIN


def _chunk_stats(rng: sampler.RngStream, n: int, first_draw: int) -> np.ndarray:
    """One (C, E_F, E_N, E_sum, S, draw index) row per entangled state among
    the next n draws of rng, in draw order; the first has draw index
    first_draw.

    Every draw consumes its uniforms, but only those that
    ``_separable_orbit`` cannot rule out are built, as spectra and the
    column stack of their unitaries, and measured from that spectral pair
    by ``measures._spectral_table``, so rho is never diagonalized; the rows
    of the states it does not call separable are kept.  The chunk's
    uniforms go once the built draws' angles are gathered, and those once U
    is built.
    """
    probs, angles = sampler._draw_spectra(rng, n)
    built = np.nonzero(~_separable_orbit(probs))[0]
    probs, angles = probs[built], angles[built]  # the chunk's uniforms go here
    cols = sampler._angles_to_columns(angles)
    del angles
    table = measures._spectral_table(probs, cols)
    kept = np.nonzero(~table.pop("separable"))[0]
    return np.column_stack([*(column[kept] for column in table.values()), built[kept] + first_draw])


def _run_shard(seed: int, shard_index: int, out: np.ndarray) -> tuple[int, int, int]:
    """Fill out, a slice of the run's PAIR_DTYPE array, with len(out) usable
    pairs drawn on the shard's own RNG substream.

    Entangled states pair up consecutively in draw order and tie pairs are
    excluded.  Chunks are drawn until the quota len(out) is met, each sized
    from the pairs still needed.  The shard keeps one array of all its
    entangled states and pairs the whole of it by one ``_pair_rows`` call
    after each chunk; the quota test, the draw-cap message and the counters
    all come from that array and its tie mask.  The shard ends at the draw
    that completes its final usable pair, so the counters reflect exactly the
    states consumed, and its usable pairs go straight into out.  A shard
    draws no new chunk once it has drawn _MAX_DRAW_FACTOR times the expected
    number of states; it raises EntanglementLabError instead.  Returns
    (states drawn, states kept, ties excluded).
    """
    quota = len(out)
    rng = sampler.RngStream(seed, (_SHARD_KEY, shard_index))
    max_draws = int(_MAX_DRAW_FACTOR * 2 * quota / _P_KEPT)
    stats, tie, drawn = np.empty((0, 6)), np.zeros(0, dtype=bool), 0
    while (need := quota - int(np.count_nonzero(~tie))) > 0:
        if drawn >= max_draws:
            raise EntanglementLabError(
                f"shard {shard_index} drew {drawn} states and still lacks {need} of "
                f"{quota} usable pairs ({len(stats)} entangled, {int(tie.sum())} tie pairs)"
            )
        size = int(2 * need / _P_KEPT) + _CHUNK_MARGIN
        stats = np.concatenate([stats, _chunk_stats(rng, size, drawn)])
        drawn += size
        n = len(stats) - len(stats) % 2
        rows, tie = _pair_rows(stats[0:n:2], stats[1:n:2])
    last = int(np.searchsorted(np.cumsum(~tie), quota))  # the pair that fills the quota
    used = slice(0, last + 1)
    np.compress(~tie[used], rows[used], axis=0, out=out)
    states_drawn = int(stats[2 * last + 1, 5]) + 1  # through that pair's second state
    return states_drawn, 2 * last + 2, int(tie[used].sum())


def run_experiment(cfg: ExperimentConfig) -> ExperimentSummary:
    """Run the full comparison: sample, discard separable states, pair, count.

    Deterministic for a fixed configuration; the thread count changes only
    how shards are scheduled, never any output value.
    """
    pairs = np.empty(cfg.n_pairs, dtype=PAIR_DTYPE)  # every shard fills its own slice
    starts = range(0, cfg.n_pairs, SHARD_PAIRS)

    def shard(index):
        return _run_shard(cfg.seed, index, pairs[starts[index] : starts[index] + SHARD_PAIRS])

    if cfg.threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # imported only by a threaded run

        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(shard, range(len(starts))))
    else:
        results = [shard(index) for index in range(len(starts))]

    drawn, kept, ties = zip(*results)
    states_drawn, states_kept, n_ties = sum(drawn), sum(kept), sum(ties)
    n_pairs = len(pairs)

    p_ent = states_kept / states_drawn
    p_vio = float(pairs["violation"].sum()) / n_pairs

    scatter_rng = sampler.RngStream(cfg.seed, _SCATTER_KEY)
    idx = scatter_rng.subsample_indices(n_pairs, min(SCATTER_POINTS, n_pairs))
    scatter_def_den = np.column_stack([pairs["d_ef"][idx], pairs["d_en"][idx]])

    # Per-state scatters in run order: state 2i + k is state k + 1 of pair i.
    pair, second = np.divmod(scatter_rng.subsample_indices(2 * n_pairs, min(SCATTER_POINTS, 2 * n_pairs)), 2)
    c, ef, en = (np.where(second, pairs[f"{name}2"][pair], pairs[f"{name}1"][pair]) for name in ("c", "ef", "en"))
    del idx, pair, second  # before the scatters are stacked

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
        s_histogram=_histogram_core(pairs["s_total"], pairs["violation"]),
    )


def write_csvs(summary: ExperimentSummary, outdir) -> dict[str, str]:
    """Write fig1..fig4.csv and summary.csv into outdir; returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    hist, cfg = summary.s_histogram, summary.config
    fields = {  # summary.csv: each field's value, written as its type sets
        "p_entangled": summary.p_entangled,
        "se_p_entangled": summary.se_entangled,
        "p_violation": summary.p_violation,
        "se_p_violation": summary.se_violation,
        "states_drawn": summary.states_drawn,
        "states_kept": summary.states_kept,
        "states_discarded": summary.states_discarded,
        "n_pairs": summary.n_pairs,
        "n_ties_excluded": summary.n_ties_excluded,
        "seed": cfg.seed,
        "s_bins": S_BINS,
        "tie_epsilon": TIE_EPSILON,
        "scatter_points": SCATTER_POINTS,
    }
    tables = {
        "fig1.csv": ("d_en,d_ef", summary.scatter_def_den[:, ::-1].T),
        "fig2.csv": ("e_formation,e_negative", summary.scatter_ef_en.T),
        "fig3.csv": ("concurrence,e_negative", summary.scatter_c_en.T),
        "fig4.csv": (
            "bin_center,pair_count,violation_count,violation_rate,empty",
            [hist.centers, hist.pair_counts, hist.violation_counts, hist.violation_rates, hist.empty],
        ),
        "summary.csv": (",".join(fields), [[value] for value in fields.values()]),
    }
    paths = {}
    for name, (header, columns) in tables.items():
        paths[name] = os.path.join(outdir, name)
        with open(paths[name], "w", encoding="ascii", newline="\n") as fh:
            write_csv(fh, header, columns)
    return paths
