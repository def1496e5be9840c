"""`tools/split.py`: one row per op kind of the workload, shares summing to 1."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["quotient", "terms", "automata"])
def test_split_covers_every_kind(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    out = subprocess.run([sys.executable, str(ROOT / "tools" / "split.py"), "--root", str(ROOT),
                          "--workload", workload, "--seed", "1", "--passes", "2"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    head, *rows, total = out.stdout.splitlines()
    assert head == f"{workload} seed 1: least of 2 passes per op kind"
    cells = [row.split() for row in rows]
    assert sorted(c[0] for c in cells) == sorted(getattr(workloads, f"{workload.upper()}_KINDS"))
    assert all(c[2] == "ms" for c in cells)
    assert abs(sum(float(c[3]) for c in cells) - 1) <= 0.0005 * len(cells)
    assert abs(sum(float(c[1]) for c in cells) - float(total.split()[1])) <= 0.0005 * len(cells)
    assert [float(c[1]) for c in cells] == sorted((float(c[1]) for c in cells), reverse=True)
