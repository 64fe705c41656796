from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditctx.clifford import enumerate_clifford, identity_clifford, traceless_set
from quditctx.errors import BadConnectionSetError, DimacsFormatError
from quditctx.graphs import (
    Graph,
    _bits,
    automorphism_count,
    cayley_graph,
    disjoint_union,
    find_isomorphism,
    or_product,
    orthogonality_graph,
    verify_bijection,
)
from quditctx.states import is_orthogonal, jamiolkowski_stabilizer


def random_graph(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j))
    return Graph.from_edges(n, edges)


graphs = st.builds(lambda d: random_graph(d.draw), st.data())


# ---------------------------------------------------------------------------
# basic structure
# ---------------------------------------------------------------------------

def test_rejects_asymmetric_and_loops():
    with pytest.raises(ValueError, match="symmetric"):
        Graph(2, [0b10, 0b00])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [0b01, 0b00])
    with pytest.raises(ValueError, match="outside range"):
        Graph(2, [0b100, 0b000])


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_complement_matches_from_edges(data):
    g = random_graph(data.draw)
    non_edges = [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if not g.has_edge(i, j)]
    assert g.complement().rows == Graph.from_edges(g.n, non_edges).rows


@pytest.mark.parametrize("d,kind", [(2, "total"), (3, "separable")])
def test_unchecked_builds_pass_validation(ortho_graph, d, kind):
    # orthogonality_graph and complement() skip the constructor's checks
    g = ortho_graph(d, kind)
    for h in (g, g.complement()):
        assert Graph(h.n, list(h.rows)).rows == h.rows


def test_complete_and_cycle():
    k4 = Graph.complete(4)
    assert k4.edge_count() == 6 and k4.is_regular() == 3
    c5 = Graph.cycle(5)
    assert c5.edge_count() == 5 and c5.is_regular() == 2


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_complement_involution(data):
    g = random_graph(data.draw)
    gcc = g.complement().complement()
    assert gcc.rows == g.rows


def test_disjoint_union_counts():
    g = disjoint_union(4, Graph.complete(3))
    assert g.n == 12 and g.edge_count() == 12
    assert g.is_regular() == 2


def test_pan_complement_shape():
    g = Graph.pan(5).complement()
    assert g.n == 6
    assert sorted(g.degrees()) == [2, 3, 3, 3, 3, 4]
    assert g.edge_count() == 9


# ---------------------------------------------------------------------------
# OR product
# ---------------------------------------------------------------------------

def test_or_product_k1():
    k1 = Graph.complete(1)
    assert or_product(k1, k1).n == 1


def test_or_product_size():
    g = disjoint_union(2, Graph.complete(3))
    p = or_product(g, g)
    assert p.n == 36


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_or_product_definition(data):
    g = random_graph(data.draw, max_n=5)
    h = random_graph(data.draw, max_n=5)
    p = or_product(g, h)
    for a in range(g.n):
        for b in range(h.n):
            for a2 in range(g.n):
                for b2 in range(h.n):
                    if (a, b) == (a2, b2):
                        continue
                    want = g.has_edge(a, a2) or h.has_edge(b, b2)
                    assert p.has_edge(a * h.n + b, a2 * h.n + b2) == want


# ---------------------------------------------------------------------------
# orthogonality graphs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_single_graph_is_union_of_complete(d, family, ortho_graph):
    g = ortho_graph(d, "single")
    target = disjoint_union(d + 1, Graph.complete(d))
    # explicit label-driven bijection: states sort by canonical key within a
    # basis, so grouping vertex indices by basis label reproduces (d+1)K_d
    by_basis = {}
    for i, s in enumerate(family(d, "single").states):
        by_basis.setdefault(s.label.split("v")[0], []).append(i)
    assert len(by_basis) == d + 1
    perm = [-1] * g.n
    slot = 0
    for basis in sorted(by_basis):
        for i in by_basis[basis]:
            perm[i] = slot
            slot += 1
    assert verify_bijection(g, target, perm)


@pytest.mark.parametrize("d", [2, 3])
def test_separable_graph_equals_or_product(d, family, ortho_graph):
    gs = ortho_graph(d, "single")
    gsep = ortho_graph(d, "separable")
    prod = or_product(gs, gs)
    # separable states are tensor pairs; map (i, j) -> product-state vertex
    single = family(d, "single").states
    sep = family(d, "separable").states
    index = {s.key: v for v, s in enumerate(sep)}
    from quditctx.states import tensor_state

    perm = []
    for a in single:
        for b in single:
            perm.append(index[tensor_state(a, b).key])
    assert verify_bijection(prod, gsep, perm)


def test_total_graph_order(ortho_graph):
    assert ortho_graph(2, "total").n == 60


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["separable", "entangled", "total"])
def test_gram_graph_matches_predicate(family, d, kind):
    states = family(d, kind).states
    g = orthogonality_graph(family(d, kind))
    for i, s in enumerate(states):
        for j, t in enumerate(states):
            assert g.has_edge(i, j) == (i != j and is_orthogonal(s, t))


@pytest.mark.parametrize("kind", ["separable", "entangled"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_gram_graph_matches_predicate_d5(family, ortho_graph, kind, data):
    # a random pair, and a random neighbour of its first state so that
    # orthogonal pairs are drawn as often as the rest
    states = family(5, kind).states
    g = ortho_graph(5, kind)
    i, j = data.draw(st.tuples(*[st.integers(0, g.n - 1)] * 2))
    k = data.draw(st.sampled_from(list(_bits(g.rows[i]))))
    for t in (j, k):
        assert g.has_edge(i, t) == (i != t and is_orthogonal(states[i], states[t]))


# ---------------------------------------------------------------------------
# Cayley graphs
# ---------------------------------------------------------------------------

def test_cayley_empty_connection_is_edgeless():
    els = enumerate_clifford(3)
    g = cayley_graph(els, [])
    assert g.edge_count() == 0


def test_cayley_regularity_d3():
    els = enumerate_clifford(3)
    T = traceless_set(3)
    g = cayley_graph(els, T)
    assert g.n == 216 and g.is_regular() == 56


def test_cayley_matches_entangled_orthogonality_d3(family, ortho_graph):
    els = enumerate_clifford(3)
    g = cayley_graph(els, traceless_set(3))
    ent = family(3, "entangled")
    og = ortho_graph(3, "entangled")
    index = {s.key: i for i, s in enumerate(ent.states)}
    perm = [index[jamiolkowski_stabilizer(c).key] for c in els]
    assert g.relabeled(perm).edge_set() == og.edge_set()


def test_cayley_rejects_identity_in_connection():
    els = enumerate_clifford(3)
    with pytest.raises(BadConnectionSetError):
        cayley_graph(els, [identity_clifford(3)])


def test_cayley_rejects_non_inverse_closed():
    els = enumerate_clifford(3)
    t = els[40]
    if t.inverse().key == t.key:
        t = els[41]
    with pytest.raises(BadConnectionSetError):
        cayley_graph(els, [t])


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------

def test_dimacs_roundtrip():
    g = Graph.cycle(7)
    text = g.to_dimacs()
    assert text.startswith("p edge 7 7\n")
    h = Graph.from_dimacs(text)
    assert h.rows == g.rows


def test_dimacs_import_skips_comments():
    text = "c a comment line\np edge 3 1\nc another\ne 1 3\n"
    g = Graph.from_dimacs(text)
    assert g.n == 3 and g.edges() == [(0, 2)]


@pytest.mark.parametrize("vertex", ["0", "4"])
def test_dimacs_rejects_vertex_out_of_range(vertex):
    with pytest.raises(DimacsFormatError, match="1..3"):
        Graph.from_dimacs(f"p edge 3 1\ne 1 {vertex}\n")


def test_dimacs_rejects_edge_before_problem_line():
    with pytest.raises(DimacsFormatError, match="before the problem line"):
        Graph.from_dimacs("e 1 2\np edge 3 1\n")


def test_dimacs_rejects_wrong_edge_count():
    with pytest.raises(DimacsFormatError, match="declares 5 edges, found 1"):
        Graph.from_dimacs("p edge 3 5\ne 1 2\n")


@pytest.mark.parametrize(
    "text",
    ["p edge 3 1\np edge 3 1\ne 1 2\n", "p edge -1 0\n", "p edge x 1\n", "p edge 3 1\ne 1\n"],
)
def test_dimacs_rejects_malformed_lines(text):
    with pytest.raises(DimacsFormatError, match="line"):
        Graph.from_dimacs(text)


def test_json_export():
    import json

    g = Graph.from_edges(3, [(0, 1)], labels=("a", "b", "c"))
    payload = json.loads(g.to_json())
    assert payload == {"n": 3, "edges": [[0, 1]], "labels": ["a", "b", "c"]}


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------

def test_c5_self_complementary():
    c5 = Graph.cycle(5)
    m = find_isomorphism(c5, c5.complement())
    assert m is not None and verify_bijection(c5, c5.complement(), m)


def test_non_isomorphic_same_degrees():
    # C6 vs 2K3: both 2-regular on six vertices
    c6 = Graph.cycle(6)
    two_k3 = disjoint_union(2, Graph.complete(3))
    assert find_isomorphism(c6, two_k3) is None


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_isomorphism_under_relabeling(data):
    g = random_graph(data.draw, max_n=8)
    perm = data.draw(st.permutations(range(g.n)))
    h = g.relabeled(list(perm))
    m = find_isomorphism(g, h)
    assert m is not None and verify_bijection(g, h, m)


def test_automorphism_counts(chsh):
    assert automorphism_count(Graph.cycle(5)) == 10
    assert automorphism_count(Graph.complete(4)) == 24
    assert automorphism_count(Graph.empty(3)) == 6
    assert automorphism_count(chsh(3).graph) == 216


def _brute_bijections(g: Graph, h: Graph) -> list[list[int]]:
    """Every adjacency-preserving bijection g -> h, over all permutations."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return []
    h_edges = {(i, j) for i, j in h.edges()} | {(j, i) for i, j in h.edges()}
    return [
        list(p) for p in permutations(range(g.n))
        if all((p[i], p[j]) in h_edges for i, j in g.edges())
    ]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_bijection_search_matches_brute_force(data):
    g = random_graph(data.draw, max_n=7)
    if data.draw(st.booleans()):
        h = g.relabeled(list(data.draw(st.permutations(range(g.n)))))
    else:
        h = random_graph(data.draw, max_n=7)
    assert automorphism_count(g) == len(_brute_bijections(g, g))
    m = find_isomorphism(g, h)
    iso = _brute_bijections(g, h)
    assert m in iso if iso else m is None
