"""The suppsets benchmark: one workload per run, one JSON line at the end.

    python3 perfbench/run.py --workload quotient --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the root of a checkout; the package is imported from its `src/`.
Each workload is a closed loop with one client in this single-threaded
process (`cli` starts one subprocess at a time).  Whole decks repeat until
`--seconds` have passed.  `--trace 0` prints the end-to-end metrics;
`--trace 1` prints the per-layer ones from a separate traced pass.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import select
import shutil
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random
from time import perf_counter
from types import SimpleNamespace

import stats
import trace
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 9
PROBE_SAMPLES = 3
CHILD_TIMEOUT = 120

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class GuardError(RuntimeError):
    pass


def import_package(root: Path) -> dict:
    """Import `suppsets` from the checkout's src/ and nowhere else."""
    src = root / "src"
    if not (src / "suppsets" / "__init__.py").is_file():
        raise GuardError(f"no src/suppsets under {root}")
    sys.path.insert(0, str(src))
    import suppsets

    where = Path(suppsets.__file__).resolve()
    if src.resolve() not in where.parents:
        raise GuardError(f"suppsets resolved to {where}, outside {src}")
    import importlib

    return {layer: importlib.import_module(f"suppsets.{layer}") for layer in workloads.LAYERS}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def check_child_import(root: Path, env: dict, cwd: Path):
    out = subprocess.run([sys.executable, "-c", "import suppsets; print(suppsets.__file__)"],
                         env=env, cwd=cwd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    where = Path(out.stdout.strip()).resolve() if out.returncode == 0 else None
    if where is None or (root / "src").resolve() not in where.parents:
        raise GuardError(f"a child process imports suppsets from {where}")


def environment(root: Path) -> dict:
    """Commit, source digest, Python version and core count for the record."""
    commit = None
    if (root / ".git").exists():
        got = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "suppsets").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": sys.version.split()[0], "nproc": os.cpu_count()}


# --- running ops ---

def wait_child(p: subprocess.Popen, timeout: float) -> tuple:
    """Reap `p`, killing it after `timeout` seconds: (exit code, or None if
    it was killed; its peak resident set in KiB)."""
    fd = os.pidfd_open(p.pid)
    try:
        timed_out = not select.select([fd], [], [], timeout)[0]
    finally:
        os.close(fd)
    if timed_out:
        p.kill()
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return (None if timed_out else p.returncode), usage.ru_maxrss


def subprocess_cli(env: dict, cwd: Path, peak_kib: list):
    """Each call is a fresh `python -m suppsets.cli`; `peak_kib[0]` keeps
    the largest peak resident set among them."""
    def run_cli(argv):
        with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
            p = subprocess.Popen([sys.executable, "-m", "suppsets.cli", *argv], env=env, cwd=cwd,
                                 stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            code, rss = wait_child(p, CHILD_TIMEOUT)
            peak_kib[0] = max(peak_kib[0], rss)
            if code is None:
                return None, "", "timeout"
            out.seek(0)
            err.seek(0)
            return code, out.read().decode(), err.read().decode()
    return run_cli


def inprocess_cli(main):
    """`cli.main(argv)` with captured output; an escaping exception becomes
    exit 1 with a traceback on stderr, as the interpreter would report it."""
    def run_cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the process boundary: report, never propagate
                err.write(traceback.format_exc())
                code = 1
        return code, out.getvalue(), err.getvalue()
    return run_cli


class Pass:
    """Latencies and failures of repeated whole decks."""

    def __init__(self):
        self.latencies = []  # seconds, in execution order; stats.FAILED for a failed op
        self.failures = []  # (position, kind, reason)
        self.busy = 0.0
        self.passes = 0
        self.recursion_failures = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_deck(wl, ctx, seconds: float, passes: int = 0, tracer=None, probes=None) -> Pass:
    """Whole decks until `seconds` have passed, or exactly `passes` of them.

    Set-up `probes`, if given, run between ops when due; the time they
    take is left out of the run's clock.
    """
    res = Pass()
    start = perf_counter()
    paused = 0.0
    while True:
        for op in wl.ops:
            if tracer is not None:
                tracer.op_id += 1
            reason = None
            t0 = perf_counter()
            try:
                result = op.call(ctx)
                dt = perf_counter() - t0
                if not op.check(result):
                    reason = f"wrong answer: {_short(result)}"
            except RecursionError:
                dt, reason = perf_counter() - t0, "RecursionError"
                res.recursion_failures += 1
            except Exception as exc:  # any raise is a failed op, recorded and counted
                dt, reason = perf_counter() - t0, f"{type(exc).__name__}: {exc}"[:200]
            res.busy += dt
            res.latencies.append(stats.FAILED if reason else dt)
            if reason:
                res.failures.append((len(res.latencies) - 1, op.kind, reason))
            if probes is not None and probes.due(perf_counter() - start - paused):
                t0 = perf_counter()
                probes.take()
                paused += perf_counter() - t0
        res.passes += 1
        if (passes and res.passes >= passes) or (not passes and perf_counter() - start - paused >= seconds):
            return res


def _short(x) -> str:
    text = repr(x)
    return text if len(text) < 160 else text[:160] + "..."


class SetupProbes:
    """SETUP_SAMPLES fresh interpreters, each timed from its start to its
    first op being ready.  They are spread evenly over the timed phase, so
    they see the same machine as the ops do."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                     "--seed", str(seed), "--setup-probe"]
        self.every = seconds / SETUP_SAMPLES
        self.times = []

    def due(self, elapsed: float) -> bool:
        return len(self.times) < SETUP_SAMPLES and elapsed >= len(self.times) * self.every

    def take(self):
        t0 = perf_counter()
        p = subprocess.Popen(self.argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = p.stdout.readline().strip()
            self.times.append(perf_counter() - t0)
            p.communicate(timeout=CHILD_TIMEOUT)
        finally:
            if p.poll() is None:
                p.kill()
                p.wait()
        if line != "ready" or p.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}, exit {p.returncode}")

    def finish(self) -> list:
        while len(self.times) < SETUP_SAMPLES:
            self.take()
        return self.times




# --- the two kinds of run ---

def end_to_end(wl, modules, seconds, seed, work, env) -> tuple:
    if wl.name in ("cli", "defects"):
        check_child_import(ROOT, env, work)
    child_kib = [0]
    ctx = trace.Ctx(modules, subprocess_cli(env, work, child_kib))
    probes = SetupProbes(wl.name, seed, seconds)
    res = run_deck(wl, ctx, seconds, wl.passes, probes=probes)
    setup = probes.finish()
    rss = (child_kib[0] if wl.name == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024.0
    p_tail, pct, beyond = stats.tail(res.latencies)
    metrics = {
        "ops_per_s": (res.attempted - res.failed) / res.busy if res.busy else 0.0,
        "op_p50_ms": stats.median(res.latencies) * 1e3,
        "op_tail_ms": p_tail * 1e3,
        "setup_s": stats.median(setup),
        "peak_rss_mb": rss,
    }
    notes = {
        "op_tail_ms": f"p{pct:.2f} of {res.attempted}, {beyond} beyond",
        "setup_s": "median of " + ", ".join(f"{t:.4f}" for t in setup),
        "peak_rss_mb": "largest child" if wl.name == "cli" else "this process",
    }
    return res, metrics, END_TO_END, notes


PER_LAYER = {
    "atoms.self_s": "s", "atoms.calls": "count", "atoms.admissibility_checks": "count",
    "supported.self_s": "s", "supported.call_p50_ms": "ms", "supported.lookups": "count",
    "supported.lookup_size_ratio": "ratio", "supported.uf_merge_ratio": "ratio",
    "freenom.self_s": "s", "freenom.universe_elems": "count", "freenom.maps_enumerated": "count",
    "freenom.extend_scan_elems": "count",
    "presentations.self_s": "s", "presentations.call_p50_ms": "ms", "presentations.closures_built": "count",
    "presentations.closures_per_query": "ratio", "presentations.orbit_candidates": "count",
    "presentations.orbit_pool_ratio": "ratio",
    "binding.self_s": "s", "binding.call_p50_ms": "ms", "binding.nodes_in": "count",
    "binding.renames_per_node": "ratio", "binding.alpha_size_ratio": "ratio",
    "binding.recursion_failures": "count",
    "automata.self_s": "s", "automata.call_p50_ms": "ms", "automata.letters_per_s": "1/s",
    "automata.successors_built": "count", "automata.successor_keep_ratio": "ratio",
    "automata.orbit_pairs": "count",
    "checks.run_all_s": "s",
    "cli.interp_s": "s", "cli.import_s": "s", "cli.inproc_p50_ms": "ms", "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

QUERIES = ("quot_eq", "supp_of", "element_count", "orbit_count")


def _median_time(fn, check, problems: list) -> float:
    times = []
    for _ in range(PROBE_SAMPLES):
        t0 = perf_counter()
        result = fn()
        times.append(perf_counter() - t0)
        if not check(result):
            problems.append(f"probe gave a wrong answer: {_short(result)}")
    return stats.median(times)


def probes(S: dict, seed: int, env: dict, problems: list) -> dict:
    """Size-ratio probes and the per-command floors, all untraced; a wrong
    answer is appended to `problems`."""
    rng = Random(f"perfbench:probes:{seed}")
    SS, B, PR = S["supported"], S["binding"], S["presentations"]
    out = {}
    times = {}
    for n in (1000, 2000):
        _, _, X, _, _, Y, fmap = workloads.carrier_inputs(SimpleNamespace(**S), rng, n)
        times[n] = _median_time(lambda: SS.SuppMap.of(X, Y, fmap), lambda r: dict(r.mapping) == fmap, problems)
    out["supported.lookup_size_ratio"] = times[2000] / times[1000]
    for n in (80, 160):
        flat = workloads.binder_chain(rng, n)
        t1 = workloads.build_named(B, flat)
        t2 = workloads.build_named(B, workloads.refs.rename_binders(flat, 10 ** 6))
        times[n] = _median_time(lambda: B.alpha_eq_terms(t1, t2), lambda r: r is True, problems)
    out["binding.alpha_size_ratio"] = times[160] / times[80]
    P = PR.presentation_from_json(workloads.cycle_presentation(4))
    for n in (4, 5):
        pool = PR.AtomPool(S["atoms"].Support.of(range(n)))
        times[n] = _median_time(lambda: PR.orbit_count(P, pool), lambda r: r == 1, problems)
    out["presentations.orbit_pool_ratio"] = times[5] / times[4]
    t0 = perf_counter()
    report = S["checks"].run_all(seed=0, budget=1)  # the README's selfcheck; some seeds fail, see `defects`
    out["checks.run_all_s"] = perf_counter() - t0
    if not report.ok:
        problems.append("run_all(seed=0, budget=1) reported failures")

    def spawn(code):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT)
        return perf_counter() - t0

    interp = stats.median([spawn("pass") for _ in range(SETUP_SAMPLES)])
    out["cli.interp_s"] = interp
    out["cli.import_s"] = stats.median([spawn("import suppsets.cli") for _ in range(SETUP_SAMPLES)]) - interp
    return out


def traced(wl, modules, seconds, seed, work, env) -> tuple:
    """Untraced decks for `seconds`, then one traced deck.

    Counts are per deck, so they compare across commits whatever their
    speed.  `cli` runs its ops through `cli.main` in this process, since
    spans cannot cross into a child.
    """
    ctx = trace.Ctx(modules, inprocess_cli(modules["cli"].main))
    plain = run_deck(wl, ctx, seconds, wl.passes)
    tracer = trace.Tracer()
    tctx = trace.Ctx(modules, None, tracer)
    tctx.run_cli = inprocess_cli(tctx.cli.main)
    patches = trace.Installed(tracer)
    try:
        res = run_deck(wl, tctx, seconds, 1, tracer)
    finally:
        patches.remove()
    first_deck = [f[:2] for f in plain.failures if f[0] < len(wl.ops)]
    if [f[:2] for f in res.failures] != first_deck:
        res.failures.append((-1, "trace", "the traced deck failed other ops than the untraced one"))

    executed = list(zip(plain.latencies, wl.ops * plain.passes))

    def layer_p50(layer):
        return stats.median([t for t, op in executed if op.layer == layer]) * 1e3

    nodes = sum(op.nodes for op in wl.ops)
    letters = sum(op.letters for _, op in executed)
    letter_time = sum(t for t, op in executed if op.letters)

    c, self_s = tracer.counts, tracer.self_s
    queries = sum(tracer.calls[f"presentations.{q}"] for q in QUERIES)
    m = {
        "atoms.self_s": self_s["atoms"],
        "atoms.calls": tracer.layer_calls["atoms"],
        "atoms.admissibility_checks": c["atoms.admissibility_checks"],
        "supported.self_s": self_s["supported"],
        "supported.call_p50_ms": layer_p50("supported"),
        "supported.lookups": c["supported.lookups"],
        "supported.uf_merge_ratio": c["supported.merges"] / c["supported.unions"] if c["supported.unions"] else 0.0,
        "freenom.self_s": self_s["freenom"],
        "freenom.universe_elems": c["freenom.universe_elems"],
        "freenom.maps_enumerated": c["freenom.maps_enumerated"],
        "freenom.extend_scan_elems": c["freenom.extend_scan_elems"],
        "presentations.self_s": self_s["presentations"],
        "presentations.call_p50_ms": layer_p50("presentations"),
        "presentations.closures_built": c["presentations.closures_built"],
        "presentations.closures_per_query": c["presentations.closures_built"] / queries if queries else 0.0,
        "presentations.orbit_candidates": c["presentations.orbit_candidates"],
        "binding.self_s": self_s["binding"],
        "binding.call_p50_ms": layer_p50("binding"),
        "binding.nodes_in": nodes,
        "binding.renames_per_node": c["binding.renames"] / nodes if nodes else 0.0,
        "binding.recursion_failures": plain.recursion_failures,
        "automata.self_s": self_s["automata"],
        "automata.call_p50_ms": layer_p50("automata"),
        "automata.letters_per_s": letters / letter_time if letter_time else 0.0,
        "automata.successors_built": c["automata.successors_built"],
        "automata.successor_keep_ratio": (c["automata.successors_kept"] / c["automata.guard_passed"]
                                          if c["automata.guard_passed"] else 0.0),
        "automata.orbit_pairs": c["automata.orbit_pairs"],
        "cli.inproc_p50_ms": layer_p50("cli"),
        "cli.self_s": self_s["cli"],
        "trace.overhead_ratio": res.busy * plain.passes / plain.busy if plain.busy else 0.0,
    }
    problems = []
    m.update(probes(modules, seed, env, problems))
    res.failures += [(-1, "probe", p) for p in problems]
    notes = {"trace.overhead_ratio": f"{res.busy:.3f} s traced deck / {plain.busy:.3f} s over {plain.passes} untraced decks"}
    return res, {k: m[k] for k in PER_LAYER}, PER_LAYER, notes


# --- entry points ---

def report(wl, res, metrics, units, notes, env_record):
    rate = res.failed / res.attempted if res.attempted else 0.0
    print(f"workload {wl.name}: {wl.why}")
    print(f"  {res.attempted} ops in {res.passes} decks, {res.failed} failed, error_rate {rate:.6f} fraction")
    for kind, why in wl.kinds.items():
        print(f"  op {kind}: {why}")
    for pos, kind, reason in res.failures[:8]:
        print(f"  failed op #{pos} ({kind}): {reason}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} {value:.6g} {units[name]}{note}")
    print("# env " + json.dumps(env_record, sort_keys=True))


def run_all_workloads(args) -> int:
    """Every workload in its own process; a table of the six end-to-end metrics."""
    rows = []
    for name in workloads.WORKLOADS:
        p = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
                           cwd=ROOT, capture_output=True, text=True)
        if p.returncode != 0:
            print(p.stdout + p.stderr, file=sys.stderr)
            return 1
        print(p.stdout.rstrip("\n").rsplit("\n", 1)[0])
        result = json.loads(p.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    header = ["workload"] + [f"{k} [{u}]" for k, u in END_TO_END.items()] + ["error_rate [fraction]", "correct"]
    print(" | ".join(header))
    ok = True
    for name, r in rows:
        vals = [r["metrics"][k]["value"] for k in END_TO_END]
        cells = [name] + [f"{v:.4g}" if v is not None else "inf" for v in vals]
        cells += [f"{r['failed'] / r['attempted']:.4g}", str(r["correct"])]
        print(" | ".join(cells))
        ok = ok and (r["correct"] or name == "defects")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all_workloads(args)
    try:
        modules = import_package(ROOT)
    except GuardError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        env = child_env(ROOT)
        wl = workloads.build(args.workload, SimpleNamespace(**modules), args.seed, ROOT, work)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        try:
            if args.trace:
                res, metrics, units, notes = traced(wl, modules, args.seconds, args.seed, work, env)
            else:
                res, metrics, units, notes = end_to_end(wl, modules, args.seconds, args.seed, work, env)
        except (trace.ManifestError, GuardError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        report(wl, res, metrics, units, notes, environment(ROOT))
        bad = stats.check_names(metrics)
        if bad:
            print(f"perfbench: bad metric names {bad}", file=sys.stderr)
            return 1
        print(json.dumps({
            "correct": res.failed == 0,
            "attempted": res.attempted,
            "failed": res.failed,
            "metrics": {k: {"value": stats.finite(v), "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
