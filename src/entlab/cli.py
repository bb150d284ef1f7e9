"""Command-line interface: measure evaluation, sampling, comparison runs."""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import sys

import numpy as np

from . import experiment, measures, qstate, sampler
from .errors import EntanglementLabError, ParameterOutOfRange

# Largest grid `werner-table` accepts, counted before any point is built.
MAX_GRID_POINTS = 10**6
# Most states `sample` draws, checked before any is drawn.
MAX_SAMPLE_COUNT = 10**6
# States `sample` draws and passes to qstate.write_stack, and grid points
# `werner-table` builds and measures, at a time, so that memory stays
# bounded for any count; a fixed size keeps the output deterministic.
STATE_BLOCK = 4096


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, step = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise ParameterOutOfRange(f"grid must be START:STOP:STEP, got {text!r}")
    if not np.isfinite([start, stop, step]).all() or step <= 0 or stop < start:
        raise ParameterOutOfRange(f"grid must be finite and increasing, got {text!r}")
    # floor, with slack for rounding in the division, so no point passes STOP
    count = np.floor((stop - start) / step + 1e-9)
    if count >= MAX_GRID_POINTS:  # also an infinite count
        raise ParameterOutOfRange(f"grid {text!r} has over {MAX_GRID_POINTS} points")
    return np.minimum(start + step * np.arange(int(count) + 1), stop)


def _family_state(args) -> qstate.DensityMatrix:
    if args.family == "singlet":
        return qstate.singlet()
    if args.family == "werner":
        return qstate.werner_state(args.param)
    return qstate.pure_schmidt(args.param)


def _cmd_measure(args) -> int:
    if args.input is not None:
        # a byte outside ASCII reaches the reader as a lone surrogate, which
        # no float parses, so its error names the line
        with open(args.input, "r", encoding="ascii", errors="surrogateescape") as fh:
            w, u = qstate._read_stack_eig(fh)[1:]  # only the eigenpairs are measured
        table = measures._table_from_eig(w, u)  # one eigh per state, the check's
    else:  # one DensityMatrix, which its construction checked
        table = {name: [value] for name, value in vars(measures.measure_report(_family_state(args))).items()}
    header = measures.REPORT_CSV_HEADER  # five floats, then the separable flag
    text = io.StringIO()  # every row first, so a failure prints nothing
    qstate.write_csv(text, header, [table[name] for name in header.split(",")])
    sys.stdout.write(text.getvalue())
    return 0


def _sample_blocks(rng: sampler.RngStream, count: int):
    """The next count states of rng as (n, 4, 4) stacks of STATE_BLOCK
    states (one empty stack for count 0): the states of one draw of count,
    as the stream is sequential.  The first next() only draws the first,
    so that a caller can draw it before any output."""
    ms = sampler.random_density_batch(rng, min(STATE_BLOCK, count))
    yield None
    yield ms
    del ms  # before the next stack is drawn
    for start in range(STATE_BLOCK, count, STATE_BLOCK):
        yield sampler.random_density_batch(rng, min(STATE_BLOCK, count - start))


def _cmd_sample(args) -> int:
    if not 0 <= args.count <= MAX_SAMPLE_COUNT:
        raise ParameterOutOfRange(f"--count must lie in [0, {MAX_SAMPLE_COUNT}], got {args.count}")
    blocks = _sample_blocks(sampler.RngStream(args.seed), args.count)
    next(blocks)  # before any output: a failure to draw prints nothing and leaves --out as it was
    if args.out is None:
        out = contextlib.nullcontext(sys.stdout)
    else:
        out = open(args.out, "w", encoding="ascii", newline="\n")
    with out as fh:
        qstate.write_stack(fh, blocks)
    if args.out is not None:
        print(f"wrote {args.count} states to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    cfg = experiment.ExperimentConfig(seed=args.seed, n_pairs=args.pairs, threads=args.threads)
    summary = experiment.run_experiment(cfg)
    paths = experiment.write_csvs(summary, args.out)
    print(
        f"p_entangled={summary.p_entangled:.6f} (se {summary.se_entangled:.6f})  "
        f"p_violation={summary.p_violation:.6f} (se {summary.se_violation:.6f})  "
        f"pairs={summary.n_pairs} drawn={summary.states_drawn}"
    )
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return 0


def _cmd_werner_table(args) -> int:
    fs = qstate.check_werner_range(_parse_grid(args.grid))
    names = ("concurrence", "e_formation", "e_negative", "e_sum")
    columns = np.empty((1 + len(names), len(fs)))
    columns[0] = fs
    for start in range(0, len(fs), STATE_BLOCK):
        block = slice(start, start + STATE_BLOCK)
        table = measures.measure_table(qstate.werner_stack(fs[block]))
        columns[1:, block] = [table[name] for name in names]
    # every block measured first, so a failure prints nothing
    qstate.write_csv(sys.stdout, ",".join(["f", *names]), columns)
    return 0


def _cmd_selftest(_args) -> int:
    from .selftest import run_selftest  # imported only by this command

    return 0 if run_selftest(verbose=True) else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (a build took 1.3 ms)."""
    parser = argparse.ArgumentParser(
        prog="entlab",
        description="Two-qubit entanglement measures and Monte Carlo ordering comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="print measure values for a state")
    p.add_argument("--family", choices=("werner", "pure", "singlet"))
    p.add_argument("--param", type=float, help="family parameter (F or alpha)")
    p.add_argument("--input", help="CSV file of serialized states")
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("sample", help="draw random states and dump them as CSV")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("compare", help="run the Monte Carlo ordering comparison")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--out", default=".", help="output directory for the CSV files")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("werner-table", help="analytic-family table over a parameter grid")
    p.add_argument("--grid", default="0.25:1.0:0.05", help="START:STOP:STEP (inclusive)")
    p.set_defaults(fn=_cmd_werner_table)

    p = sub.add_parser("selftest", help="run the module invariant suites")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "measure":
        if (args.input is None) == (args.family is None):
            parser.error("measure requires exactly one of --family or --input")
        if args.param is not None and args.family in (None, "singlet"):
            parser.error("--param applies only to --family werner or pure")
        if args.param is None and args.family in ("werner", "pure"):
            parser.error(f"--family {args.family} requires --param")
    try:
        return args.fn(args)
    except BrokenPipeError:  # the reader closed stdout; nothing is left to tell it
        return 1
    except (ValueError, OSError) as exc:  # a ParameterOutOfRange is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EntanglementLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
