"""``benchmarks/ab.py`` loads two trees side by side and compares their outputs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Two pairs per workload keep the run short; the script's own counts are
# constants, so a child interpreter sets them before it calls main.
SCRIPT = f"""
import sys
sys.path.insert(0, {str(ROOT / "benchmarks")!r})
import ab
ab.WORKLOADS = {{name: (seed, cohorts, 2) for name, (seed, cohorts, _) in ab.WORKLOADS.items()}}
ab.WARMUP = 1
ab.main([{str(ROOT)!r}, {str(ROOT)!r}])
"""


def test_ab_compares_a_tree_with_itself(tmp_path):
    subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, check=True, capture_output=True, timeout=300
    )
    bench = json.loads((tmp_path / "BENCH_ab.json").read_text(encoding="utf-8"))
    assert set(bench["results"]) == {"paper_small", "wide_extract"}
    for result in bench["results"].values():
        assert result["pairs"] == 2 and result["pairs_outputs_differ"] == 0
        assert result["before"]["median_ms"] > 0 and result["after"]["median_ms"] > 0
    assert len(set(bench["source_sha256"].values())) == 1
