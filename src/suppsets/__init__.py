"""Supported sets, data symmetries, binding, and register automata.

The pieces fit together like this: `atoms` fixes the data alphabets and
their renaming monoids; `supported` gives the finite category of supported
sets; `freenom` freely extends a supported set with a monoid action;
`presentations` quotients such extensions by finitely many equations;
`binding` relates de Bruijn-style binding to nominal abstraction and
needs only `atoms`; and `automata` runs register automata over data words
via their configurations, elements of the free extension of the location
set.

`import suppsets` imports none of them: each public name below is looked
up in its layer on first use (PEP 562), so a caller pays only for the
layers it touches.
"""

import sys

_PUBLIC = {
    "atoms": (
        "Atom", "FiniteMap", "GlobalMap", "NominalCarrier", "Support", "SymmetryId", "apply",
        "compose", "extend_to_global", "fresh", "identity", "inverse", "is_admissible",
        "lock_free_witness", "transposition",
    ),
    "supported": (
        "SuppMap", "SuppSet", "b_support", "check_supported_map", "classify_regular_subobject",
        "coequalizer", "coproduct", "equalizer", "exponential", "is_iso", "pf_support",
        "product", "ufs_support",
    ),
    "freenom": (
        "ExtElem", "RestrictedMap", "act", "ext_enumerate", "ext_map", "ext_support", "extend",
        "mult", "restrict", "unit",
    ),
    "presentations": (
        "AtomPool", "FinPresentation", "QuotElem", "act_quot", "default_pool",
        "element_count", "orbit_count", "quot_eq", "supp_of",
    ),
    "binding": (
        "AbsClass", "App", "DbApp", "DbLam", "Idx", "Lam", "Var", "alpha_eq", "from_debruijn",
        "maxidx", "phi", "phi_inv", "sigma", "supp_abs", "to_debruijn",
    ),
    "automata": (
        "Guard", "INPUT", "Literal", "Nfa", "Reg", "RegisterAutomaton", "determinize_generic",
        "eval_guard", "reachable_orbits", "run", "step", "validate",
    ),
}
_LAYER_OF = {name: layer for layer, names in _PUBLIC.items() for name in names}

__all__ = list(_LAYER_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_LAYER_OF[name]}"
    __import__(module)  # unlike importlib.import_module, shows in -X importtime
    value = getattr(sys.modules[module], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
