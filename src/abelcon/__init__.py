"""Equations with abelianisation constraints in graph products of cyclic groups.

Exact normal-form arithmetic, defining-graph combinatorics, abelianisation
and exponent sums, an instance language with abelian-shadow pruning,
compilers from integer polynomial systems, and a bounded search solver.
"""

from .abelian import (
    LinearSystem,
    SolvabilityResult,
    abelianize,
    exponent_sum,
    is_abelian_primitive,
    parse_linear_system,
    solve_linear_system,
)
from .compilers import (
    AtomizedH10,
    CompiledReduction,
    H10Instance,
    Interpretation,
    atomize,
    compile_h10_free,
    compile_h10_raag,
    decode_solution,
    integers_into_free_interpretation,
    parse_h10,
    print_h10,
    reduce_finite_ab,
    rewrite_under_interpretation,
    witness_h10,
)
from .graphs import (
    WeakModule,
    direct_product_decomposition,
    minimal_vertices,
    nonadjacent_weak_module_pair,
    star_link,
    vertex_leq,
    weak_modules,
)
from .instances import (
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
from .search import SearchReport, search
from .words import (
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

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
