"""Combinatorics of the defining graph.

Star/link of vertex sets, the star-inclusion preorder, minimal vertices,
weak modules (maximal sets of minimal vertices sharing a star), and the
join decomposition of the graph into direct factors.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import EmptySet
from .words import Presentation, _noncommutation_components


class WeakModule(NamedTuple):
    """Maximal clique of star-minimal vertices with a common star."""
    vertices: tuple[str, ...]

    def __str__(self):
        return "{" + ",".join(self.vertices) + "}"


def star_link(p: Presentation, vertices) -> tuple[frozenset[str], frozenset[str]]:
    """(star, link) of a nonempty vertex set; link is the common neighborhood."""
    vs = list(vertices)
    if not vs:
        raise EmptySet("star/link of the empty set is not defined")
    for v in vs:
        p.check_vertex(v)
    link = frozenset.intersection(*[p.adj[v] for v in vs])
    return link | frozenset(vs), link


def vertex_leq(p: Presentation, v: str, u: str) -> bool:
    """True iff star(v) is contained in star(u)."""
    p.check_vertex(v)
    p.check_vertex(u)
    return p.star(v) <= p.star(u)


def minimal_vertices(p: Presentation) -> frozenset[str]:
    """Vertices with no other vertex strictly below them in the star order."""
    out = set()
    for v in p.vertices:
        if not any(u != v and p.star(u) < p.star(v) for u in p.vertices):
            out.add(v)
    return frozenset(out)


def weak_modules(p: Presentation) -> list[WeakModule]:
    """All weak modules, pairwise disjoint, in canonical vertex order.

    Equal stars is an equivalence on minimal vertices, so grouping by the
    star fingerprint makes each class maximal automatically.
    """
    groups: dict[frozenset[str], list[str]] = {}
    for v in sorted(minimal_vertices(p), key=p.index.__getitem__):
        groups.setdefault(p.star(v), []).append(v)
    modules = [WeakModule(tuple(vs)) for vs in groups.values()]
    modules.sort(key=lambda m: p.index[m.vertices[0]])
    return modules


def nonadjacent_weak_module_pair(p: Presentation) -> Optional[tuple[WeakModule, WeakModule]]:
    """First pair of weak modules with no edges between them, if one exists."""
    mods = weak_modules(p)
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            s, t = mods[i], mods[j]
            if not any(p.adjacent(u, v) for u in s.vertices for v in t.vertices):
                return s, t
    return None


def direct_product_decomposition(p: Presentation) -> list[frozenset[str]]:
    """Join components of the graph (connected components of the complement).

    Each component induces a direct factor of the group; a singleton list
    means there is no nontrivial direct product decomposition.
    """
    return _noncommutation_components(p, frozenset(p.vertices))
