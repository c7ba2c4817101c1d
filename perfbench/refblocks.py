"""Fixed reference work that measures how fast this machine is right now.

The benchmark divides every timing by a reference block timed in the same
process just before and just after it, because on a shared machine raw
seconds drift by tens of percent from one minute to the next while the
ratio of two pieces of CPU work run back to back does not.  The blocks
import nothing from ``causalsurv``: they must cost the same whatever the
program does.  Their nominal times are frozen in ``nominal.json``;
corrected = raw x nominal / measured.

* ``small`` -- small-array numpy calls driven by a Python loop, the cost
  shape of a desk-scale analysis.
* ``large`` -- passes over arrays of 5 x 10^4 to 2 x 10^5 elements, the
  shape of the work in analyses of 10^4 rows and more.
* ``mixed`` -- ``large`` plus, for about as long, Python-object work: CSV
  rows parsed into records and set-based walks over a small graph, the
  shape of CSV ingest and the backdoor search.
* ``IMPORT_MODULES`` -- stdlib modules imported in a fresh interpreter,
  the reference for the cold-import cost behind ``setup_s``.  Neither they
  nor their dependencies are imported by ``causalsurv.cli`` or numpy, so
  their cost does not depend on the order of the imports.
"""

import csv
import io
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

# Two halves, one imported before ``causalsurv.cli`` and one after, so the
# reference brackets the import it corrects.
IMPORT_MODULES = (
    ("xml.sax", "secrets", "queue", "sched", "difflib", "dbm", "colorsys"),
    ("html.parser", "ftplib", "configparser", "shlex", "mimetypes", "cmd",
     "gzip", "glob", "netrc", "graphlib", "wave", "string"),
)


@dataclass(frozen=True)
class _Record:
    key: str
    a: int
    b: int
    labels: dict = field(default_factory=dict)


class ReferenceBlock:
    """One fixed unit of CPU work; ``time()`` runs it and returns seconds.

    ``kind`` is ``"small"``, ``"large"`` or ``"mixed"``.  Which one tracks
    a workload was measured, not assumed: with per-analysis correction,
    ``small`` steadied paper_small, and for wide_extract an equal-time mix
    of large-array and Python-object work steadied block medians more
    than either part alone.
    """

    def __init__(self, kind: str):
        if kind not in ("small", "large", "mixed"):
            raise ValueError(f"unknown reference block {kind!r}")
        rng = np.random.default_rng(20200623)
        self._kind = kind
        self._t = np.sort(rng.integers(0, 60, size=200)).astype(np.float64)
        self._d = rng.integers(0, 2, size=200).astype(np.uint8)
        self._x = rng.normal(size=(200, 2))
        self._starts = np.flatnonzero(np.r_[True, self._t[1:] != self._t[:-1]])
        self._big = rng.random(200_000)
        self._keys = rng.integers(0, 1825, size=50_000)
        cells = rng.integers(0, 50, size=(4000, 5)).tolist()
        self._csv = "\n".join(",".join(map(str, row)) for row in cells) + "\n"
        self._nodes = [f"n{i}" for i in range(40)]
        self._parents = {
            v: tuple(self._nodes[j] for j in range(i) if (7 * i + 3 * j) % 5 == 0)
            for i, v in enumerate(self._nodes)
        }

    def _small_pass(self, beta):
        x, d = self._x, self._d
        w = np.exp(x @ beta)
        s0 = np.cumsum(w[::-1])[::-1]
        s1 = np.cumsum((w[:, None] * x)[::-1], axis=0)[::-1]
        acc = 0.0
        ends = np.r_[self._starts[1:], x.shape[0]]
        for a0, a1 in zip(self._starts, ends):
            fail = a0 + np.flatnonzero(d[a0:a1] == 1)
            m = fail.size
            if m == 0:
                continue
            ls = np.arange(m, dtype=np.float64)
            denom = s0[a0] - ls * w[fail].sum() / m
            acc += float(np.log(denom).sum()) + float(s1[a0].sum())
        return acc

    def _large_pass(self):
        big = self._big
        acc = float(np.cumsum(np.exp(-big))[-1])
        acc += float(np.sort(big[:50_000])[100])
        _, counts = np.unique(self._keys, return_counts=True)
        return acc + float(counts.sum())

    def _python_pass(self):
        records = [
            _Record(row[0], int(row[1]), int(row[2]), {"c": row[3].strip(), "d": row[4].strip()})
            for row in csv.reader(io.StringIO(self._csv))
        ]
        acc = len({r.labels["c"] for r in records})
        for combo in itertools.combinations(self._nodes[:14], 3):
            blocked, seen, stack = frozenset(combo), set(), [self._nodes[-1]]
            while stack:
                v = stack.pop()
                if v not in blocked and v not in seen:
                    seen.add(v)
                    stack.extend(self._parents[v])
            acc += len(seen)
        return acc

    def run(self) -> float:
        if self._kind == "large":
            return sum(self._large_pass() for _ in range(10))
        if self._kind == "mixed":
            return (sum(self._large_pass() for _ in range(5))
                    + sum(self._python_pass() for _ in range(2)))
        return sum(self._small_pass(np.array([0.1 * (i % 4), -0.05])) for i in range(8))

    def time(self) -> float:
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start
