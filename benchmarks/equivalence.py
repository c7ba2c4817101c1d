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
directory, so it is left out).

The identification output is fingerprinted apart, by exit code and
stdout: ``backdoor`` on each workload's graph, and ``analyze`` on the
workload's first input with the graph's first confounder (the first node
with edges into both treatment and time) made latent, which exits 4
naming an open backdoor path.

The script writes every fingerprint to ``equivalence.json`` in the
current directory and prints two digests: one over the 376 analyze runs,
then one over the identification runs.  Two checkouts whose outputs agree
on every run print the same digests, and ``diff`` of their
``equivalence.json`` names the runs that differ.  BLAS runs on one thread.
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


def stdout_fingerprint(cli, argv):
    """A sha256 of one ``cli.main`` call's exit code and stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return hashlib.sha256(f"exit {code}\n{out.getvalue()}".encode()).hexdigest()


def identification(cli, workload, argv, out):
    """Fingerprints of ``backdoor`` on the graph of ``argv``, and of ``argv`` with
    the graph's first confounder made latent."""
    graph = Path(argv[argv.index("--graph") + 1])
    doc = json.loads(graph.read_text(encoding="utf-8"))
    causes = [{a for a, b in doc["edges"] if b == v} for v in ("treatment", "time")]
    first = next(n for n in doc["nodes"] if n["name"] in causes[0] & causes[1])
    doc["nodes"] = [{**n, "observed": False} if n is first else n for n in doc["nodes"]]
    latent = graph.with_name("latent.json")
    latent.write_text(json.dumps(doc), encoding="utf-8")
    backdoor = ["backdoor", "--graph", str(graph), "--treatment", "treatment", "--outcome", "time"]
    return {
        f"{workload}/backdoor": stdout_fingerprint(cli, backdoor),
        # the last --graph given wins
        f"{workload}/latent {first['name']}": stdout_fingerprint(
            cli, [*argv, "--graph", str(latent), "--out", str(out)]
        ),
    }


def main():
    from causalsurv import cli  # here, so that benchmarks/ab.py can import fingerprint

    runs, identified = {}, {}
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        for workload, seed, cohorts in INPUTS:
            inputs = root / f"{workload}-{seed}"
            plan = generate(workload, seed, inputs, cohorts)
            if f"{workload}/backdoor" not in identified:  # once per workload
                identified.update(identification(cli, workload, plan["argv"][0], root / "out"))
            for argv in plan["argv"]:
                data = Path(argv[argv.index("--data") + 1]).name
                for ties, extra in itertools.product(TIES, FILTERS):
                    key = "/".join((workload, str(seed), data, ties, *extra))
                    _, runs[key] = fingerprint(
                        cli, [*argv, "--ties", ties, *extra], root / "out" / key
                    )
    Path("equivalence.json").write_text(
        json.dumps({**runs, **identified}, indent=2) + "\n", encoding="utf-8"
    )
    for label, group in (("runs", runs), ("identification runs", identified)):
        total = hashlib.sha256(json.dumps(group).encode()).hexdigest()
        print(f"{len(group)} {label}, digest {total}")


if __name__ == "__main__":
    main()
