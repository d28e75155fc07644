"""Exact-arithmetic Conway polynomials of oriented link diagrams.

The package computes the Conway polynomial of any PD-coded oriented link
diagram by a memoized skein-tree search over descending diagrams, entirely
in integer arithmetic, and ships a verification harness that re-derives a
family of closed-form coefficient identities from scratch.
"""

import importlib

# each engine module declares its public names in its own __all__
from . import diagram, poly, skein
from .diagram import *
from .poly import *
from .skein import *

# The table and verify modules load on first use of one of their names
# (PEP 562), so that `import conwaykit` and the CLI's diagram commands
# compile only the engine.  _LAZY is the one list of their public names.
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

__all__ = ["__version__"]
__all__ += diagram.__all__
__all__ += poly.__all__
__all__ += skein.__all__
__all__ += [name for names in _LAZY.values() for name in names]
