import pytest

from abelcon.errors import EmptySet, InvalidPresentation, UnknownVertex
from abelcon.graphs import (
    direct_product_decomposition,
    minimal_vertices,
    nonadjacent_weak_module_pair,
    star_link,
    vertex_leq,
    weak_modules,
)
from abelcon.words import Presentation, induced_subpresentation

K3 = Presentation.raag("abc", [("a", "b"), ("b", "c"), ("a", "c")])
SINGLE = Presentation.raag("a", [])
EDGE = Presentation.raag("ab", [("a", "b")])
# apex c joined to non-adjacent a, b: F2 x Z
F2XZ = Presentation.raag("abc", [("a", "c"), ("b", "c")])


def test_star_link(gamma1, gamma2):
    star, link = star_link(gamma1, {"b"})
    assert star == {"a", "b", "c"}
    star, link = star_link(gamma2, {"a", "b"})
    assert link == {"c"} and star == {"a", "b", "c"}
    star, _ = star_link(K3, set("abc"))
    assert star == {"a", "b", "c"}


def test_star_link_errors(gamma1):
    with pytest.raises(EmptySet):
        star_link(gamma1, set())
    with pytest.raises(UnknownVertex):
        star_link(gamma1, {"z"})


# a graph file whose error is on its line 4: (bad lines, error, message)
BAD_GRAPHS = [
    ("vertex a inf\nvertex b inf", "edge a c", UnknownVertex,
     "edge (a, c) uses undeclared vertex"),
    ("vertex a inf\nvertex b inf", "edge a a", InvalidPresentation, "loop at vertex a"),
    ("vertex a inf\nvertex b 2", "vertex a 3", InvalidPresentation, "duplicate vertex a"),
    # the first declaration's order is valid: the error is the second one
    ("vertex a inf\nvertex b 2", "vertex a 1", InvalidPresentation, "duplicate vertex a"),
    ("vertex a inf\nvertex b inf", "vertex c 1", InvalidPresentation,
     "vertex order must be an integer >= 2 or None, got 1"),
]


@pytest.mark.parametrize("head,bad,error,message", BAD_GRAPHS)
def test_graph_errors_name_their_line(head, bad, error, message):
    with pytest.raises(error) as err:
        Presentation.from_text(f"# graph\n{head}  # two vertices\n{bad}\nedge a b\n")
    assert err.value.line == 4 and str(err.value) == f"{message} (line 4)"


def test_presentation_errors_from_code_carry_no_line():
    for args, message in ((("ab", [("a", "c")]), "edge (a, c) uses undeclared vertex"),
                          (("ab", [("b", "b")]), "loop at vertex b"),
                          (("aba", []), "duplicate vertex a")):
        with pytest.raises((UnknownVertex, InvalidPresentation)) as err:
            Presentation(*args)
        assert err.value.line is None and str(err.value) == message


def test_an_edge_may_come_before_its_vertices():
    p = Presentation.from_text("edge a b\nvertex a inf\nvertex b inf\n")
    assert p == Presentation.raag("ab", [("a", "b")])


def test_vertex_leq(gamma1):
    assert vertex_leq(gamma1, "a", "b")
    assert not vertex_leq(gamma1, "b", "a")
    for v in gamma1.vertices:
        assert vertex_leq(gamma1, v, v)


def test_vertex_leq_preorder(gamma1, gamma2, pentagon):
    for p in (gamma1, gamma2, pentagon):
        vs = p.vertices
        for u in vs:
            for v in vs:
                for w in vs:
                    if vertex_leq(p, u, v) and vertex_leq(p, v, w):
                        assert vertex_leq(p, u, w)


def test_minimal_vertices(gamma1):
    assert minimal_vertices(gamma1) == {"a", "d"}
    assert minimal_vertices(K3) == {"a", "b", "c"}
    assert minimal_vertices(SINGLE) == {"a"}


def test_weak_modules(gamma1, gamma2):
    assert [m.vertices for m in weak_modules(gamma1)] == [("a",), ("d",)]
    assert [m.vertices for m in weak_modules(gamma2)] == [("a", "b"), ("d",)]
    assert [m.vertices for m in weak_modules(K3)] == [("a", "b", "c")]


def test_weak_module_invariants(gamma1, gamma2, pentagon):
    for p in (gamma1, gamma2, pentagon, K3, F2XZ):
        mods = weak_modules(p)
        seen = set()
        minimal = minimal_vertices(p)
        for m in mods:
            vs = set(m.vertices)
            assert vs and not (vs & seen)
            seen |= vs
            assert vs <= minimal
            stars = {p.star(v) for v in m.vertices}
            assert len(stars) == 1
            star = stars.pop()
            for u in m.vertices:
                for v in m.vertices:
                    assert u == v or p.adjacent(u, v)  # clique
            # maximal: no outside minimal vertex shares the star
            for u in minimal - vs:
                assert p.star(u) != star


def test_nonadjacent_pair(gamma1):
    pair = nonadjacent_weak_module_pair(gamma1)
    assert pair is not None
    s, t = pair
    assert (s.vertices, t.vertices) == (("a",), ("d",))
    assert nonadjacent_weak_module_pair(K3) is None
    assert nonadjacent_weak_module_pair(EDGE) is None


def test_absent_pair_means_join(gamma2, pentagon):
    for p in (K3, EDGE, F2XZ, gamma2, pentagon):
        if nonadjacent_weak_module_pair(p) is None:
            minimal = minimal_vertices(p)
            for u in p.vertices:
                for v in minimal:
                    assert u == v or p.adjacent(u, v)


def test_direct_product_decomposition(gamma1):
    assert direct_product_decomposition(EDGE) == [{"a"}, {"b"}]
    assert direct_product_decomposition(gamma1) == [{"a", "b", "c", "d"}]
    assert direct_product_decomposition(F2XZ) == [{"a", "b"}, {"c"}]


def test_decomposition_partitions_and_separates(gamma1, gamma2, pentagon):
    for p in (gamma1, gamma2, pentagon, K3, EDGE, F2XZ):
        comps = direct_product_decomposition(p)
        union = set()
        for c in comps:
            assert not (c & union)
            union |= c
        assert union == set(p.vertices)
        for i, c in enumerate(comps):
            for d in comps[i + 1:]:
                for u in c:
                    for v in d:
                        assert p.adjacent(u, v)  # complement edges never cross
        for c in comps:  # a join component is join-indecomposable
            assert direct_product_decomposition(induced_subpresentation(p, c)) == [c]
