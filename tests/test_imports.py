"""What `import suppsets` and each CLI command load, and the names both
modules answer whatever has been loaded."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import suppsets
import suppsets.cli as cli
from suppsets.binding import Idx

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"

# The public names of the package, by defining layer, as the package listed
# them when it imported every layer up front.
PUBLIC = {
    "atoms": "Atom FiniteMap GlobalMap NominalCarrier Support SymmetryId apply compose "
             "extend_to_global fresh identity inverse is_admissible lock_free_witness transposition",
    "supported": "SuppMap SuppSet b_support check_supported_map classify_regular_subobject "
                 "coequalizer coproduct equalizer exponential is_iso pf_support product ufs_support",
    "freenom": "ExtElem RestrictedMap act ext_enumerate ext_map ext_support extend mult restrict "
               "unit",
    "presentations": "AtomPool FinPresentation QuotElem act_quot default_pool element_count "
                     "orbit_count quot_eq supp_of",
    "binding": "AbsClass App DbApp DbLam Idx Lam Var alpha_eq from_debruijn maxidx phi phi_inv "
               "sigma supp_abs to_debruijn",
    "automata": "Guard INPUT Literal Nfa Reg RegisterAutomaton determinize_generic eval_guard "
                "reachable_orbits run step validate",
}

# The names a traced benchmark run reads and replaces on `suppsets.cli`.
TRACED_CLI_NAMES = (
    "atom_from_json fresh_atoms support_to_json automaton_from_json reachable_orbits run validate "
    "alpha_eq_terms from_debruijn named_to_json parse_debruijn parse_named show_debruijn show_named "
    "to_debruijn debruijn_to_json run_all ext_elem_from_json default_pool element_count orbit_count "
    "presentation_from_json quot_eq supp_of"
).split()

_RUN_CLI = """
import runpy
sys.argv = ["suppsets", *sys.argv[1:]]
try:
    runpy.run_module("suppsets.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
"""


def layers_loaded(code: str, *argv) -> set:
    """The `suppsets` layers in `sys.modules` after `code` runs in a fresh process."""
    listing = '\nprint(*sorted(m.partition(".")[2] for m in sys.modules if m.startswith("suppsets.")))'
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code + listing, *argv],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.splitlines()[-1].split())


AUTOMATA_LAYERS = {"atoms", "supported", "freenom", "automata"}


class TestWhatLoads:
    def test_import_suppsets_loads_no_layer(self):
        assert layers_loaded("import suppsets") == set()

    def test_automata_needs_no_binding(self):
        assert layers_loaded("import suppsets.automata") == AUTOMATA_LAYERS

    def test_run(self):
        loaded = layers_loaded(_RUN_CLI, "run", str(DATA / "first_repeat.json"), str(DATA / "word_repeat.txt"))
        assert loaded == AUTOMATA_LAYERS

    @pytest.mark.parametrize("command", ["validate", "orbits"])
    def test_validate_and_orbits(self, command):
        assert layers_loaded(_RUN_CLI, command, str(DATA / "first_repeat.json")) == AUTOMATA_LAYERS

    def test_lambda_to_db(self):
        # the CLI itself runs as `__main__`, so it is not listed as `suppsets.cli`
        assert layers_loaded(_RUN_CLI, "lambda", "to-db", r"\v0. v0 v5") == {"atoms", "binding"}

    def test_binding_needs_only_atoms(self):
        assert layers_loaded("import suppsets.binding") == {"atoms", "binding"}

    def test_quot_count(self):
        loaded = layers_loaded(_RUN_CLI, "quot", "count", str(DATA / "unordered_pairs.json"), "--pool", "3")
        assert "presentations" in loaded and not loaded & {"binding", "automata", "checks"}

    def test_selfcheck_loads_checks(self):
        assert "checks" in layers_loaded(_RUN_CLI, "selfcheck", "--budget", "0")


class TestPublicSurface:
    def test_all_lists_the_same_names(self):
        names = [n for layer in PUBLIC.values() for n in layer.split()]
        assert len(names) == 74
        assert sorted(suppsets.__all__) == sorted(names)
        assert set(names) <= set(dir(suppsets))

    @pytest.mark.parametrize("layer", PUBLIC)
    def test_each_name_is_its_layers_object(self, layer):
        module = importlib.import_module(f"suppsets.{layer}")
        for name in PUBLIC[layer].split():
            assert getattr(suppsets, name) is getattr(module, name), name

    def test_readme_library_example(self):
        readme = (ROOT / "README.md").read_text()
        example = re.search(r"## Library example\s+```python\n(.*?)```", readme, re.S).group(1)
        assert "from suppsets import *" in example
        exec(compile(example, "README.md", "exec"), {})

    def test_submodule_import(self):
        from suppsets import automata

        assert automata is sys.modules["suppsets.automata"]

    @pytest.mark.parametrize("module", [suppsets, cli])
    def test_unknown_attribute(self, module):
        message = f"module '{module.__name__}' has no attribute 'no_such_name'"
        with pytest.raises(AttributeError, match=f"^{re.escape(message)}$"):
            module.no_such_name


class TestCliNames:
    def test_traced_names_resolve(self):
        for name in TRACED_CLI_NAMES:
            assert callable(getattr(cli, name)), name

    @pytest.mark.parametrize("name, value, argv, out", [
        ("run", True, ["run", str(DATA / "first_repeat.json"), str(DATA / "word_norepeat.txt")], "accept"),
        ("to_debruijn", Idx(7), ["lambda", "to-db", r"\v0. v0"], "#7"),
        ("element_count", 12345, ["quot", "count", str(DATA / "unordered_pairs.json"), "--pool", "3"], "12345"),
    ])
    def test_a_name_set_on_the_module_is_the_one_called(self, monkeypatch, capsys, name, value, argv, out):
        calls = []
        monkeypatch.setattr(cli, name, lambda *args: calls.append(args) or value)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.strip() == out
        assert len(calls) == 1
