"""Exact-arithmetic Conway polynomials of oriented link diagrams.

The package computes the Conway polynomial of any PD-coded oriented link
diagram by a memoized skein-tree search over descending diagrams, entirely
in integer arithmetic, and ships a verification harness that re-derives a
family of closed-form coefficient identities from scratch.
"""

import importlib

from .diagram import (
    Crossing,
    Diagram,
    PDSyntaxError,
    PDValidationError,
    canonical_code,
    components,
    connected_sum,
    disjoint_union,
    is_graph_connected,
    linking_number,
    meridian_link,
    mirror,
    parse_pd,
    pd_text,
    reduce,
    smooth_crossing,
    switch_crossing,
    torus2_diagram,
    writhe,
)
from .poly import IntPoly, PolySyntaxError, format_poly, parse_poly
from .skein import (
    NodeBudgetExceeded,
    SkeinContext,
    SkeinInvariantError,
    a2,
    check_a2_skein,
    check_skein_identity,
    conway,
    conway_Kn,
    conway_torus2,
)

# The table and verify modules load on first use of one of their names
# (PEP 562), so that `import conwaykit` and the CLI's diagram commands
# compile only the engine.
_LAZY = {
    "table": (
        "KnotTableEntry", "TableError", "TableValidationError", "check_entry",
        "default_table_path", "load_table",
    ),
    "verify": (
        "VerificationReport", "VerifyConfig", "a2_A", "a2_B", "a3_of",
        "check_recurrences", "closed_form_crosscheck", "k1_chain", "run_all",
        "theorem_sum_check",
    ),
}


def __getattr__(name: str):
    if name in _LAZY:
        # the import also binds the submodule as an attribute of the package
        return importlib.import_module("." + name, __name__)
    for module, names in _LAZY.items():
        if name in names:
            # not cached here: the submodule's binding stays the one source
            return getattr(importlib.import_module("." + module, __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "Crossing",
    "Diagram",
    "IntPoly",
    "KnotTableEntry",
    "NodeBudgetExceeded",
    "PDSyntaxError",
    "PDValidationError",
    "PolySyntaxError",
    "SkeinContext",
    "SkeinInvariantError",
    "TableError",
    "TableValidationError",
    "VerificationReport",
    "VerifyConfig",
    "a2",
    "a2_A",
    "a2_B",
    "a3_of",
    "canonical_code",
    "check_a2_skein",
    "check_entry",
    "check_recurrences",
    "check_skein_identity",
    "closed_form_crosscheck",
    "components",
    "connected_sum",
    "conway",
    "conway_Kn",
    "conway_torus2",
    "default_table_path",
    "disjoint_union",
    "format_poly",
    "is_graph_connected",
    "k1_chain",
    "linking_number",
    "load_table",
    "meridian_link",
    "mirror",
    "parse_pd",
    "parse_poly",
    "pd_text",
    "reduce",
    "run_all",
    "smooth_crossing",
    "switch_crossing",
    "theorem_sum_check",
    "torus2_diagram",
    "writhe",
    "__version__",
]
