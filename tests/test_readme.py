"""README's library example runs as written, and the package exports what it lists."""

import json
import re
from pathlib import Path

import causalsurv as cs

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).parent / "fixtures" / "golden_seed7"

PAPER_GRAPH = {
    "nodes": [{"name": "z"}, {"name": "treatment"}, {"name": "time"}],
    "edges": [["z", "treatment"], ["z", "time"], ["treatment", "time"]],
}


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    (tmp_path / "graph.json").write_text(json.dumps(PAPER_GRAPH))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    out = capsys.readouterr().out.splitlines()
    assert "variables=frozenset({'z'})" in out[0]
    # the example's cohort and graph are analyze's golden seed-7 run, and
    # hr_report and analyze turn (beta, se) into the interval by one helper
    adjusted = json.loads((GOLDEN / "report.json").read_text(encoding="utf-8"))["adjusted"]
    assert out[-1] == repr((adjusted["hr"], *adjusted["ci"]))


def test_every_exported_name_resolves():
    missing = [name for name in cs.__all__ if not hasattr(cs, name)]
    assert missing == []
