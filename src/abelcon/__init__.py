"""Equations with abelianisation constraints in graph products of cyclic groups.

Exact normal-form arithmetic, defining-graph combinatorics, abelianisation
and exponent sums, an instance language with abelian-shadow pruning,
compilers from integer polynomial systems, and a bounded search solver.

The search path (``errors``, ``words``, ``abelian``, ``instances``,
``search``) loads with the package. ``compilers`` (the H10 reductions) and
``graphs`` (weak modules and join decompositions) load lazily: both are in
``sys.modules`` from the start, through ``importlib.util.LazyLoader``, but
their source is compiled and run on the first access to one of their
attributes, so a process that only parses and searches never pays for them
(nor for ``json``). The names re-exported from them resolve through the
module ``__getattr__`` below, which reads the module's attribute on every
access and keeps no copy, so a rebinding there (as a tracer makes) shows
through the package too.
"""


def _lazy_submodule(name: str):
    """Register the submodule ``name`` to load on first attribute access."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# registered before the eager modules: a walk over sys.modules that reads
# each module's namespace then loads these before it rebinds anything
compilers = _lazy_submodule("compilers")
graphs = _lazy_submodule("graphs")

from .abelian import (  # noqa: E402
    LinearSystem,
    SolvabilityResult,
    abelianize,
    exponent_sum,
    is_abelian_primitive,
    parse_linear_system,
    solve_linear_system,
)
from .instances import (  # noqa: E402
    AbEq,
    Coset,
    Disjunct,
    EvalResult,
    ExpSumEq,
    GroupTerm,
    Instance,
    LengthEq,
    abelian_shadow,
    evaluate,
    flatten,
    parse_instance,
    print_instance,
)
from .search import SearchReport, search  # noqa: E402
from .words import (  # noqa: E402
    CentralizerDesc,
    NormalWord,
    Presentation,
    centralizer_generators,
    cyclically_reduce,
    format_word,
    geodesic_length,
    invert,
    multiply,
    normalize,
    parse_word,
    support,
)

_LAZY_NAMES = dict.fromkeys((
    "AtomizedH10",
    "CompiledReduction",
    "H10Instance",
    "Interpretation",
    "atomize",
    "compile_h10_free",
    "compile_h10_raag",
    "decode_solution",
    "integers_into_free_interpretation",
    "parse_h10",
    "print_h10",
    "reduce_finite_ab",
    "rewrite_under_interpretation",
    "witness_h10",
), compilers) | dict.fromkeys((
    "WeakModule",
    "direct_product_decomposition",
    "minimal_vertices",
    "nonadjacent_weak_module_pair",
    "star_link",
    "vertex_leq",
    "weak_modules",
), graphs)


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY_NAMES})


__all__ = sorted(name for name in __dir__() if not name.startswith("_"))
__version__ = "0.1.0"
