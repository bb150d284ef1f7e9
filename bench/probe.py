"""Cold start of one workload, timed in a fresh interpreter.

``python3 bench/probe.py WORKLOAD SEED TMPDIR`` imports entlab from the
checkout's ``src/``, makes the workload's smallest call and prints the seconds
from before the import to after the call as its last line.  ``run.py`` runs it
several times and reports the median as ``setup_s``; it also imports
``cold_call`` to warm its own process before timing.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def cold_call(entlab, workload: str, seed: int, tmpdir: Path) -> None:
    """The smallest instance of the workload's operation."""
    if workload == "scalar_io":
        path = str(tmpdir / f"probe-{seed}.csv")
        entlab.cli.main(["sample", "--seed", str(seed), "--count", "1", "--out", path])
        entlab.cli.main(["measure", "--input", path])
    else:
        threads = 2 if workload == "paper_t2" else 1
        entlab.run_experiment(entlab.ExperimentConfig(seed=seed, n_pairs=1, threads=threads))


if __name__ == "__main__":
    workload, seed, tmpdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import entlab
    import entlab.cli

    cold_call(entlab, workload, seed, tmpdir)
    print(repr(time.perf_counter() - start))
