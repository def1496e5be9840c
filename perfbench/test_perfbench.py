"""Tests of the benchmark itself: `python3 -m pytest perfbench` from the root."""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path
from random import Random
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import refs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402

MODULES = {layer: importlib.import_module(f"suppsets.{layer}") for layer in workloads.LAYERS}
S = SimpleNamespace(**MODULES)


# --- the percentile rule ---

def test_tail_leaves_exactly_ten_samples_beyond():
    value, pct, beyond = stats.tail([float(i) for i in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    rng = Random(0)
    xs = [rng.random() for _ in range(1234)]
    value, pct, beyond = stats.tail(xs)
    assert sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100 * 1224 / 1234)


def test_tail_of_few_samples_is_the_maximum_with_none_beyond():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert stats.tail([]) == (0.0, 0.0, 0)


def test_failures_count_as_infinite_latency():
    ok = [1.0] * 100
    assert math.isfinite(stats.tail(ok + [stats.FAILED] * 10)[0])
    assert stats.tail(ok + [stats.FAILED] * 11)[0] == math.inf
    assert stats.median([1.0, stats.FAILED, stats.FAILED]) == math.inf
    assert stats.finite(math.inf) is None


# --- failed-op accounting ---

def _deck(*ops):
    return workloads.Workload("fake", "test", list(ops), {})


def _op(call, check=lambda r: r == 1, **kw):
    return workloads.Op("k", "binding", call, check, **kw)


def test_run_deck_counts_wrong_answers_raises_and_recursion():
    def recurse(c):
        return recurse(c)

    def boom(c):
        raise KeyError("x")

    wl = _deck(_op(lambda c: 1), _op(lambda c: 2), _op(boom), _op(recurse))
    res = run.run_deck(wl, None, 0, passes=2)
    assert res.attempted == 8 and res.failed == 6 and res.passes == 2
    assert res.recursion_failures == 2
    assert [x == math.inf for x in res.latencies] == [False, True, True, True] * 2
    assert [f[1:] for f in res.failures[:3]] == [("k", "wrong answer: 2"), ("k", "KeyError: 'x'"),
                                                ("k", "RecursionError")]


def test_run_deck_repeats_whole_decks_until_the_time_is_up():
    wl = _deck(_op(lambda c: 1), _op(lambda c: 1), _op(lambda c: 1))
    res = run.run_deck(wl, None, 0.0)
    assert res.passes == 1 and res.attempted == 3


def test_set_up_probes_are_spread_over_the_run_and_kept_off_its_clock(monkeypatch):
    taken = []
    probes = run.SetupProbes("fake", 0, 0.05)
    monkeypatch.setattr(probes, "take", lambda: (taken.append(1), probes.times.append(0.0)))
    wl = _deck(*[_op(lambda c: 1) for _ in range(5)])
    res = run.run_deck(wl, None, 0.0, probes=probes)
    assert len(taken) == 1 and res.attempted == 5  # only the first is due at once
    assert len(probes.finish()) == run.SETUP_SAMPLES


def test_cli_children_report_exit_code_and_peak_memory():
    p = subprocess.Popen([sys.executable, "-c", "import sys; sys.exit(3)"])
    code, kib = run.wait_child(p, 60)
    assert code == 3 and p.returncode == 3 and kib > 1000
    p = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    assert run.wait_child(p, 0.2)[0] is None and p.returncode == -9


# --- metric names ---

def test_metric_names_and_units_follow_the_pattern():
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    assert stats.check_names(names) == []
    assert all(stats.UNIT.fullmatch(u) for u in list(run.END_TO_END.values()) + list(run.PER_LAYER.values()))
    assert stats.check_names(["ok.name", "bad name", "ok.name", "-lead"]) == ["bad name", "ok.name", "-lead"]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


# --- seeds ---

def _stable(x):
    """A repr that sees through closures and default arguments."""
    if type(x).__name__ in ("Var", "App", "Lam", "Idx", "DbApp", "DbLam"):
        return workloads.lib_flat(x)  # repr would recurse as deep as the term
    if hasattr(x, "__code__"):
        cells = tuple(_stable(c.cell_contents) for c in x.__closure__ or ())
        return (x.__qualname__, _stable(x.__defaults__), cells)
    if isinstance(x, (list, tuple)):
        return tuple(_stable(i) for i in x)
    if isinstance(x, dict):
        return tuple(sorted((repr(k), _stable(v)) for k, v in x.items()))
    if isinstance(x, (set, frozenset)):
        return tuple(sorted(map(repr, x)))
    return repr(x)


def fingerprint(wl) -> str:
    ops = [(op.kind, op.layer, op.nodes, op.letters, _stable(op.call), _stable(op.check)) for op in wl.ops]
    return hashlib.sha256(repr(ops).encode()).hexdigest()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_ops_and_answers(name, tmp_path):
    first = workloads.build(name, S, 7, ROOT, tmp_path)
    again = workloads.build(name, S, 7, ROOT, tmp_path)
    other = workloads.build(name, S, 8, ROOT, tmp_path)
    assert [op.kind for op in first.ops] == [op.kind for op in again.ops]
    assert fingerprint(first) == fingerprint(again)
    assert fingerprint(first) != fingerprint(other)


# --- references ---

def test_references_agree_with_the_readme_examples():
    t = refs.parse("\\v0. v0 v5")
    assert refs.show(refs.to_debruijn(t)) == "\\ #0 #6"
    assert refs.alpha_equal(refs.parse("\\v0. v0 v2"), refs.parse("\\v1. v1 v2"))
    assert not refs.alpha_equal(refs.parse("\\v0. v0 v2"), refs.parse("\\v1. v1 v3"))


def test_show_and_parse_round_trip_deep_terms_without_recursion():
    deep = workloads.nested_parens(3000)
    assert refs.parse(refs.show(deep)) == deep
    chain = workloads.binder_chain(Random(1), 3000)
    assert refs.parse(refs.show(chain)) == chain
    db = refs.to_debruijn(chain)
    assert refs.parse(refs.show(db), named=False) == db


def test_renamed_copies_are_alpha_equal_and_perturbed_ones_are_not():
    rng = Random(2)
    for _ in range(50):
        t = workloads.random_term(rng, rng.randint(1, 60))
        assert refs.alpha_equal(t, refs.rename_binders(t, 1000))
        assert not refs.alpha_equal(t, workloads.perturb(rng, t))


def test_word_predicates():
    assert refs.first_repeats([5, 3, 5]) and not refs.first_repeats([5, 3, 4])
    assert refs.has_abab([1, 2, 1, 2]) and not refs.has_abab([1, 2, 2, 1])
    rng = Random(3)
    for accept in (True, False):
        assert refs.has_abab(workloads.abab_word(rng, 60, 12, accept)) is accept


# --- the wrap-point manifest ---

def test_manifest_is_complete_at_this_commit():
    assert trace.check_manifest() == []


@pytest.mark.parametrize("module, name", [("presentations", "act_finite"), ("automata", "step_full"),
                                          ("presentations", "quot_classes")])
def test_a_missing_wrap_point_fails_by_name(monkeypatch, module, name):
    monkeypatch.delattr(MODULES[module], name)
    with pytest.raises(trace.ManifestError, match=f"suppsets.{module}.{name}"):
        trace.Installed(trace.Tracer())


def test_installed_patches_are_removed():
    before = MODULES["presentations"].act_finite, S.atoms.Support.__dict__["of"]
    patches = trace.Installed(trace.Tracer())
    assert MODULES["presentations"].act_finite is not before[0]
    patches.remove()
    assert (MODULES["presentations"].act_finite, S.atoms.Support.__dict__["of"]) == before


def test_spans_nest_and_self_time_excludes_children():
    t = trace.Tracer()
    t.op_id = 7
    seen = []

    def work():
        seen.append([frame[4:] for frame in t.stack])  # (span id, parent id, op id), root first
        return sum(range(20_000))

    inner = t.wrap("atoms.f", "atoms", work)
    outer = t.wrap("binding.g", "binding", lambda: [inner() for _ in range(3)])
    t0 = perf_counter()
    outer()
    total = perf_counter() - t0
    assert t.calls == {"atoms.f": 3, "binding.g": 1} and t.stack == []
    root = seen[0][0]
    assert root[1] is None
    assert all(stack[0] == root and stack[1][1] == root[0] and stack[1][2] == 7 for stack in seen)
    assert len({stack[1][0] for stack in seen}) == 3
    assert t.self_s["binding"] + t.self_s["atoms"] <= total
    assert t.self_s["binding"] < t.self_s["atoms"]
