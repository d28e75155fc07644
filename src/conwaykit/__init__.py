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
        "VerificationReport", "a2_A", "a2_B", "a3_of", "check_recurrences",
        "closed_form_crosscheck", "k1_chain", "run_all", "theorem_sum_check",
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


class VerifyConfig:
    """Bounds, seed and sample sizes of one verification run.

    It lives here rather than in verify, which re-exports it, so that the
    CLI can read the default bounds without loading the verify module.
    """

    def __init__(
        self,
        max_n: int = 50,
        max_l: int = 50,
        max_r: int = 50,
        theorem_max_n: int = 1000,
        table_path: str | None = None,
        seed: int = 20260817,
        diagram_samples: int = 100,
        pair_samples: int = 50,
        max_random_crossings: int = 8,
    ):
        self.max_n = max_n
        self.max_l = max_l
        self.max_r = max_r
        self.theorem_max_n = theorem_max_n
        self.table_path = table_path
        self.seed = seed
        self.diagram_samples = diagram_samples
        self.pair_samples = pair_samples
        self.max_random_crossings = max_random_crossings

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"VerifyConfig({fields})"


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
