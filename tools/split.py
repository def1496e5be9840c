"""Where one workload's deck spends its time, op kind by op kind, in this
process.

    python tools/split.py --root DIR --workload quotient --seed 1 --passes 7

Builds the workload of the checkout at DIR as its `perfbench/run.py` does
(`workloads.build`, with the package imported from DIR's `src/` and every
op called through an untraced `trace.Ctx`; `cli` ops call `cli.main` in
this process).  It then runs the whole deck `--passes` times and prints,
for each op kind, the least over the passes of that kind's summed op
times, the sum of those minima, and each kind's share of the sum.  Exits
1 if an op gives a wrong answer or raises.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace


def split(root: Path, workload: str, seed: int, passes: int) -> tuple:
    """({kind: least per-pass seconds}, [failed op kinds]) for the deck of
    `workload` at `seed` in the checkout at `root`."""
    sys.path.insert(0, str(root / "perfbench"))
    import run
    import trace
    import workloads

    modules = run.import_package(root)
    least, failed = {}, []
    with tempfile.TemporaryDirectory() as work:
        wl = workloads.build(workload, SimpleNamespace(**modules), seed, root, Path(work))
        ctx = trace.Ctx(modules, run.inprocess_cli(modules["cli"].main))
        for _ in range(passes):
            spent = Counter()
            for op in wl.ops:
                t0 = perf_counter()
                try:
                    ok = op.check(op.call(ctx))
                except Exception:  # a raise is a failed op, as in run.py
                    ok = False
                spent[op.kind] += perf_counter() - t0
                if not ok:
                    failed.append(op.kind)
            for kind, s in spent.items():
                least[kind] = min(s, least.get(kind, s))
    return least, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, default=7)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    least, failed = split(args.root.resolve(), args.workload, args.seed, args.passes)
    total = sum(least.values())
    print(f"{args.workload} seed {args.seed}: least of {args.passes} passes per op kind")
    for kind, s in sorted(least.items(), key=lambda ks: -ks[1]):
        print(f"{kind:24s} {s * 1e3:10.3f} ms  {s / total:6.3f}")
    print(f"{'sum':24s} {total * 1e3:10.3f} ms  {1:6.3f}")
    if failed:
        print(f"wrong or raised: {dict(Counter(failed))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
