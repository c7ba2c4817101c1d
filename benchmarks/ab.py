"""Time two source trees against each other, call by call, in one interpreter.

    python3 benchmarks/ab.py BEFORE AFTER

BEFORE and AFTER are source checkouts, each holding ``src/causalsurv``;
``git archive REV | tar -x -C DIR`` makes one of any commit.  The script
imports each tree's package under its own name, ``before_causalsurv`` and
``after_causalsurv``, through ``importlib``; that works because the
package imports itself only relatively.  No bytecode is written into the
trees, and BLAS is pinned to one thread before numpy loads.

The inputs come from ``perfbench/inputs.generate`` in this script's
checkout, the only perfbench module it reads: paper_small seed 1, whose
pairs cycle through its cohorts as perfbench gives each analysis a new
cohort, and wide_extract seed 3.  After ``WARMUP`` calls per side, each
of a workload's pairs calls ``cli.main(["analyze", ..., "--out", DIR])``
once per side on the same input, the side that goes first alternating
from pair to pair, through ``benchmarks/equivalence.fingerprint``: only
the call is timed, and a pair differs when the two sides' fingerprints
of the exit code and output files differ.

The script writes ``BENCH_ab.json`` in the current directory: per
workload, each side's median and quartiles in milliseconds, the change of
the medians, the median of the paired ratios, the pairs the change
(AFTER) won, and the pairs that differ; each side is named by a sha256 of
its package sources, not by its path.  Read the paired ratio: the call
times of one input spread over several modes, so a side's median can move
by several percent between runs where the paired ratio does not.
"""

import os
import sys

# one BLAS thread, as perfbench's worker runs: set before numpy loads BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # leave the trees, and perfbench, as they are

import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from inputs import generate  # noqa: E402

from equivalence import fingerprint  # noqa: E402

SIDES = ("before", "after")
# workload -> (seed, cohorts, pairs)
WORKLOADS = {"paper_small": (1, 20, 1000), "wide_extract": (3, 1, 200)}
WARMUP = 3


def load(tree, name):
    """Import ``tree``'s ``src/causalsurv`` as the package ``name``; returns its cli module."""
    init = Path(tree) / "src" / "causalsurv" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def source_digest(tree):
    """sha256 over the package's ``.py`` files, names and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted((Path(tree) / "src" / "causalsurv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run(cli, argv, out):
    """Seconds of one ``cli.main(argv)`` call into a fresh ``out``, and its fingerprint."""
    shutil.rmtree(out, ignore_errors=True)
    return fingerprint(cli, argv, out)


def compare(clis, workload, directory):
    """Paired call times of both sides on one workload, and the pairs that differ."""
    seed, cohorts, pairs = WORKLOADS[workload]
    argvs = generate(workload, seed, directory / workload, cohorts)["argv"]
    outs = {side: directory / "out" / side for side in SIDES}
    for side in SIDES:
        for k in range(WARMUP):
            run(clis[side], argvs[k % len(argvs)], outs[side])
    seconds = {side: [] for side in SIDES}
    differ = 0
    for k in range(pairs):
        results = {}
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            elapsed, results[side] = run(clis[side], argvs[k % len(argvs)], outs[side])
            seconds[side].append(elapsed)
        differ += results["before"] != results["after"]
    return seconds, differ


def summary(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_ms": median * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3}


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.exit("usage: ab.py BEFORE AFTER")
    trees = dict(zip(SIDES, args))
    clis = {side: load(tree, f"{side}_causalsurv") for side, tree in trees.items()}
    results = {}
    with tempfile.TemporaryDirectory() as directory:
        for workload in WORKLOADS:
            seconds, differ = compare(clis, workload, Path(directory))
            before, after = (summary(seconds[side]) for side in SIDES)
            ratios = [a / b for b, a in zip(seconds["before"], seconds["after"])]
            won = sum(r < 1.0 for r in ratios)
            results[workload] = {
                "pairs": len(seconds["after"]),
                "before": before,
                "after": after,
                "median_change": after["median_ms"] / before["median_ms"] - 1.0,
                "paired_change": statistics.median(ratios) - 1.0,
                "pairs_after_won": won,
                "pairs_outputs_differ": differ,
            }
            print(f"{workload:<12} before {before['median_ms']:8.3f} ms "
                  f"({before['q1_ms']:.3f}-{before['q3_ms']:.3f}), after "
                  f"{after['median_ms']:8.3f} ms ({after['q1_ms']:.3f}-{after['q3_ms']:.3f}), "
                  f"medians {results[workload]['median_change']:+.1%}, paired "
                  f"{results[workload]['paired_change']:+.1%}, after won {won}/"
                  f"{results[workload]['pairs']} pairs, {differ} pairs differ")
    bench = {
        "benchmark": "ab",
        "measure": "seconds of one cli.main(['analyze', ..., '--out', DIR]) call per side per "
        "pair, the side that goes first alternating, both packages in one interpreter, "
        "stdout to an io.StringIO",
        "statistic": "median and quartiles of each side's calls; median_change compares the "
        "two medians, paired_change is the median over pairs of AFTER's time over BEFORE's, "
        "less 1; pairs_after_won counts the pairs in which AFTER's call was faster",
        "source_sha256": {side: source_digest(tree) for side, tree in trees.items()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "results": results,
    }
    Path("BENCH_ab.json").write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    return results


if __name__ == "__main__":
    main()
