"""Fingerprint the outputs of 376 ``analyze`` runs, to compare two checkouts byte for byte.

    PYTHONPATH=src python3 benchmarks/equivalence.py

Run from the root of a source checkout.  The inputs come from
``perfbench/inputs.generate``: paper_small seeds 1 and 2 with 20 cohorts
each, wide_extract seeds 3 and 11, and registry_ties seeds 2 to 6.  Each
is analysed by ``cli.main`` under ``--ties efron`` and ``--ties breslow``,
each with its workload's flags, with ``--strict-censoring`` added, with
``--t-max 1000`` in place of its horizon, and with both.  wide_extract's
days are multiples of 30, so a horizon of 1000 falls between two of them
and the follow-up filters must add a day and drop the days past it.
For each run the script takes one sha256 over its exit code and its
report.json, curves.csv and curves.svg (stdout names the output
directory, so it is left out).  It writes them to ``equivalence.json`` in
the current directory and prints one digest of them all: two checkouts
whose outputs agree on every run print the same digest, and ``diff`` of
their ``equivalence.json`` names the runs that differ.  BLAS runs on one
thread.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import time
from pathlib import Path

# one BLAS thread, as perfbench's worker runs: set before numpy loads BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from inputs import generate  # noqa: E402

INPUTS = (
    *(("paper_small", seed, 20) for seed in (1, 2)),
    *(("wide_extract", seed, 1) for seed in (3, 11)),
    *(("registry_ties", seed, 1) for seed in range(2, 7)),
)
TIES = ("efron", "breslow")
# the last --t-max given wins
STRICT, HORIZON = ("--strict-censoring",), ("--t-max", "1000")
FILTERS = ((), STRICT, HORIZON, HORIZON + STRICT)
OUTPUTS = ("report.json", "curves.csv", "curves.svg")


def fingerprint(cli, argv, out):
    """Seconds of one ``cli.main`` call into ``out``, and a sha256 of its exit code and
    output files; a missing file hashes as absent."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main([*argv, "--out", str(out)])
        seconds = time.perf_counter() - start
    digest = hashlib.sha256(f"exit {code}\n".encode())
    for name in OUTPUTS:
        path = out / name
        data = path.read_bytes() if path.exists() else b""
        digest.update(f"{name} {path.exists()} {len(data)}\n".encode() + data)
    return seconds, digest.hexdigest()


def main():
    from causalsurv import cli  # here, so that benchmarks/ab.py can import fingerprint

    runs = {}
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        for workload, seed, cohorts in INPUTS:
            inputs = root / f"{workload}-{seed}"
            for argv in generate(workload, seed, inputs, cohorts)["argv"]:
                data = Path(argv[argv.index("--data") + 1]).name
                for ties, extra in itertools.product(TIES, FILTERS):
                    key = "/".join((workload, str(seed), data, ties, *extra))
                    _, runs[key] = fingerprint(
                        cli, [*argv, "--ties", ties, *extra], root / "out" / key
                    )
    Path("equivalence.json").write_text(json.dumps(runs, indent=2) + "\n", encoding="utf-8")
    total = hashlib.sha256(json.dumps(runs).encode()).hexdigest()
    print(f"{len(runs)} runs, digest {total}")


if __name__ == "__main__":
    main()
