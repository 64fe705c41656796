import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditctx import invariants
from quditctx.bell import alternate_chsh_scenario, kcbs_scenario
from quditctx.cli import cover_hint_by_basis
from quditctx.errors import BudgetExceededError, InvalidHintError
from quditctx.graphs import Graph, disjoint_union
from quditctx.invariants import (
    _check_packing_duality,
    _k_colorable,
    admm_theta,
    brute_alpha,
    brute_chi,
    brute_chibar,
    brute_colorable,
    brute_omega,
    chromatic_number,
    clique_cover,
    coherent_closure,
    compute_report,
    count_induced_cycles,
    fractional_packing,
    greedy_coloring,
    independence_number,
    induced_odd_cycles,
    lovasz_theta,
    max_clique,
    maximal_cliques,
    scheme_theta,
    theta_cycle_closed_form,
    verify_induced_cycle,
)


def random_graph(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j))
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# clique / independence
# ---------------------------------------------------------------------------

def test_max_clique_complete():
    res = max_clique(Graph.complete(5))
    assert res.size == 5 and res.exact and len(res.witness) == 5


def test_independence_pentagon():
    assert independence_number(Graph.cycle(5)).size == 2


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_clique_matches_brute(data):
    g = random_graph(data.draw)
    assert max_clique(g).size == brute_omega(g)
    assert independence_number(g).size == brute_alpha(g)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_upper_bound_keeps_witness(data):
    # a K_{25,25} decoy holds the 40 highest-degree vertices, so the greedy
    # warm start finds only an edge and the search itself must reach omega
    h = random_graph(data.draw, max_n=10)
    m = 25
    edges = [(i, m + j) for i in range(m) for j in range(m)]
    edges += [(2 * m + i, 2 * m + j) for i, j in h.edges()]
    g = Graph.from_edges(2 * m + h.n, edges)
    full = max_clique(g)
    capped = max_clique(g, upper=full.size)
    assert (capped.size, capped.witness, capped.exact) == (full.size, full.witness, True)
    assert capped.nodes <= full.nodes


def test_budget_degrades_to_bound():
    rng = np.random.default_rng(11)
    n = 150
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.8]
    g = Graph.from_edges(n, edges)
    res = max_clique(g, budget=0.0)
    assert not res.exact
    assert res.size >= 3  # warm start still supplies a witness
    full = max_clique(g, budget=120.0)
    if full.exact:
        assert full.size >= res.size


# ---------------------------------------------------------------------------
# coloring / cover
# ---------------------------------------------------------------------------

def test_chi_complete_and_cycle():
    assert chromatic_number(Graph.complete(6)).value == 6
    assert chromatic_number(Graph.cycle(5)).value == 3
    assert chromatic_number(Graph.cycle(6)).value == 2


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_chi_matches_brute(data):
    g = random_graph(data.draw, max_n=8)
    assert chromatic_number(g).value == brute_chi(g)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_k_colorable_matches_brute(data):
    g = random_graph(data.draw, max_n=9)
    clique = max_clique(g).witness
    for k in range(len(clique), g.n + 1):
        coloring, _ = _k_colorable(g, k, clique, math.inf)
        assert (coloring is not False) == brute_colorable(g, k), k
        if coloring:
            assert all(coloring[i] != coloring[j] for i, j in g.edges())
            assert all(0 <= c < k for c in coloring)
            assert [coloring[v] for v in clique] == list(range(len(clique)))


def test_chi_total_qubits_search_order(ortho_graph):
    # the d=2 total graph needs the search at k = 4 and 5; the node count pins
    # the branching order
    res = chromatic_number(ortho_graph(2, "total"))
    assert (res.value, res.route, res.nodes) == (6, "branch-and-bound", 56_986)


def test_normal_cayley_route():
    # C4: alpha * omega = 2 * 2 = 4 = |V| forces chi = omega
    c4 = Graph.cycle(4)
    res = chromatic_number(c4, alpha=independence_number(c4), normal_cayley=True)
    assert res.exact and res.value == 2 and res.route == "normal-cayley"


def test_clique_cover_edgeless():
    g = Graph.empty(7)
    res = clique_cover(g)
    assert res.size == 7 and res.exact


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_cover_matches_brute(data):
    g = random_graph(data.draw, max_n=7)
    assert clique_cover(g).size == brute_chibar(g)


def test_cover_hint_verified():
    g = disjoint_union(3, Graph.complete(4))
    hint = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
    res = clique_cover(g, hint=hint, lower_bound=3)
    assert res.size == 3 and res.exact and res.route == "hint"


def test_cover_hint_rejects_non_clique():
    g = Graph.cycle(4)
    with pytest.raises(InvalidHintError):
        clique_cover(g, hint=[[0, 1, 2, 3]])


def test_cover_hint_rejects_partial_cover():
    g = Graph.complete(4)
    with pytest.raises(InvalidHintError):
        clique_cover(g, hint=[[0, 1]])


def test_greedy_coloring_valid():
    g = Graph.cycle(9)
    ncol, coloring = greedy_coloring(g)
    assert all(coloring[i] != coloring[j] for i, j in g.edges())
    assert ncol >= 3


# ---------------------------------------------------------------------------
# fractional packing
# ---------------------------------------------------------------------------

def test_alpha_star_pentagon():
    val, x = fractional_packing(Graph.cycle(5))
    assert val == Fraction(5, 2)
    assert all(v == Fraction(1, 2) for v in x)


def test_alpha_star_complete():
    val, _ = fractional_packing(Graph.complete(6))
    assert val == Fraction(1)


def test_alpha_star_empty():
    val, _ = fractional_packing(Graph.empty(4))
    assert val == Fraction(4)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_alpha_star_sandwich(data):
    g = random_graph(data.draw, max_n=7)
    val, _ = fractional_packing(g)
    assert brute_alpha(g) <= val <= brute_chibar(g)


def _all_cliques(g):
    """Every nonempty clique of g as a bitmask, by extending smaller ones."""
    is_clique = [True] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        low = mask & -mask
        rest = mask ^ low
        is_clique[mask] = is_clique[rest] and rest & ~g.rows[low.bit_length() - 1] == 0
    return [mask for mask in range(1, 1 << g.n) if is_clique[mask]]


@pytest.fixture(scope="module")
def linprog():
    return pytest.importorskip("scipy.optimize").linprog


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_packing_matches_linprog(linprog, data):
    g = random_graph(data.draw, max_n=12)
    a = np.array([[mask >> v & 1 for v in range(g.n)] for mask in _all_cliques(g)])
    res = linprog(-np.ones(g.n), A_ub=a, b_ub=np.ones(len(a)), bounds=(0, None))
    assert res.status == 0
    val, x = fractional_packing(g)
    assert abs(float(val) + res.fun) < 1e-9
    assert sum(x) == val and all(v >= 0 for v in x)


@pytest.mark.parametrize(
    "d,kind,value", [(2, "separable", 9), (2, "entangled", 6), (2, "total", 15)]
)
def test_alpha_star_families(ortho_graph, d, kind, value):
    assert fractional_packing(ortho_graph(d, kind))[0] == value


def test_packing_duality_check_rejects():
    # C5 scaled by D = 2: x = y = 1 on every vertex and edge is optimal
    c5 = [0b00011, 0b00110, 0b01100, 0b11000, 0b10001]
    _check_packing_duality(c5, [1] * 5, [1] * 5, 2)
    _check_packing_duality([0b11], [1, 0], [1], 1)  # K2 at D = 1
    bad = [
        (c5, [2, 0, 1, 1, 1], [1] * 5, 2),  # x overfills edge {4, 0}
        (c5, [1] * 5, [2, 0, 1, 1, 1], 2),  # y covers vertex 2 once
        (c5, [1, 1, 1, 1, 0], [1] * 5, 2),  # objective values differ
        ([0b11], [2, -1], [1], 1),  # negative primal entry
    ]
    for cliques, x, y, det in bad:
        with pytest.raises(AssertionError):
            _check_packing_duality(cliques, x, y, det)


def test_packing_cap():
    with pytest.raises(BudgetExceededError):
        fractional_packing(Graph.empty(20), max_vertices=10)


def test_maximal_clique_enumeration():
    g = Graph.cycle(5)
    masks = maximal_cliques(g)
    assert len(masks) == 5
    assert all(bin(m).count("1") == 2 for m in masks)


# ---------------------------------------------------------------------------
# Lovasz theta
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_theta_odd_cycles_closed_form(k):
    m = 2 * k + 1
    res = lovasz_theta(Graph.cycle(m), tol=1e-6)
    assert res.converged
    closed = theta_cycle_closed_form(m)
    assert abs(res.value - closed) < 1e-4
    assert res.lower - 1e-9 <= closed <= res.upper + 1e-9


def test_theta_complete_and_empty():
    assert abs(lovasz_theta(Graph.complete(6), tol=1e-7).value - 1.0) < 1e-5
    assert abs(lovasz_theta(Graph.empty(6), tol=1e-7).value - 6.0) < 1e-5


def test_theta_cap():
    # the cap holds on the ADMM route: pan(5) has no association scheme
    with pytest.raises(BudgetExceededError):
        lovasz_theta(Graph.pan(5), max_vertices=5)


def test_theta_scheme_route_is_uncapped():
    res = lovasz_theta(Graph.empty(10), max_vertices=5)
    assert res.route == "scheme" and res.converged
    assert abs(res.value - 10.0) < 1e-9 and res.gap <= 1e-6


# graphs with a small association scheme, each built from (chsh, ortho_graph)
SCHEME_GRAPHS = [("kcbs", lambda chsh, og: kcbs_scenario().graph)]
SCHEME_GRAPHS += [(f"chsh-d{d}", lambda chsh, og, d=d: chsh(d).graph) for d in (2, 3, 5)]
SCHEME_GRAPHS += [(f"C{m}", lambda chsh, og, m=m: Graph.cycle(m)) for m in (5, 7, 9, 11, 13)]
SCHEME_GRAPHS += [("K6", lambda chsh, og: Graph.complete(6)),
                  ("empty6", lambda chsh, og: Graph.empty(6))]
SCHEME_GRAPHS += [(f"d2-{k}", lambda chsh, og, k=k: og(2, k))
                  for k in ("separable", "entangled", "total")]
SCHEME_GRAPHS += [(f"single-d{d}", lambda chsh, og, d=d: og(d, "single")) for d in (3, 5)]


@pytest.mark.parametrize("name,build", SCHEME_GRAPHS, ids=[c[0] for c in SCHEME_GRAPHS])
def test_theta_scheme_matches_admm(name, build, chsh, ortho_graph):
    g = build(chsh, ortho_graph)
    scheme = scheme_theta(g)
    admm = admm_theta(g)
    assert scheme is not None and scheme.route == "scheme" and scheme.iterations == 0
    assert scheme.status == "tolerance" and scheme.gap <= 1e-6
    assert admm.route == "admm" and admm.converged
    assert abs(scheme.value - admm.value) < 1e-5
    # both brackets are certified, so they overlap
    assert scheme.lower <= admm.upper + 1e-9 and admm.lower <= scheme.upper + 1e-9
    assert lovasz_theta(g).route == "scheme"


def test_theta_admm_route_without_scheme():
    alt = alternate_chsh_scenario().scenario.graph
    for g in (alt, Graph.pan(5)):
        assert coherent_closure(g) is None
        res = lovasz_theta(g)
        assert res.route == "admm" and res.converged and res.iterations > 0


@pytest.mark.parametrize("d,relations", [(2, 5), (3, 6), (5, 6)])
def test_chsh_coherent_closure(d, relations, chsh):
    g = chsh(d).graph
    rel, p = coherent_closure(g)
    assert len(p) == relations
    assert len(set(rel.diagonal().tolist())) == 1
    # the intersection numbers reproduce every product of relation matrices
    mats = [(rel == k).astype(np.int64) for k in range(relations)]
    for a in range(relations):
        for b in range(relations):
            want = sum(int(p[a, b, k]) * mats[k] for k in range(relations))
            assert (mats[a] @ mats[b] == want).all()


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_theta_sandwich(data):
    g = random_graph(data.draw, max_n=7)
    res = lovasz_theta(g, tol=1e-5)
    a = brute_alpha(g)
    astar, _ = fractional_packing(g)
    assert a <= res.upper + 1e-6
    assert res.lower <= float(astar) + 1e-6


# ---------------------------------------------------------------------------
# induced odd cycles
# ---------------------------------------------------------------------------

def test_c7_contains_itself():
    res = induced_odd_cycles(Graph.cycle(7), 3)
    assert res[3].status == "found" and res[3].kind == "cycle"
    assert verify_induced_cycle(Graph.cycle(7), res[3].vertices)
    assert res[2].status == "absent"


def test_complement_witness():
    g = Graph.cycle(7).complement()
    res = induced_odd_cycles(g, 3)
    assert res[3].status == "found" and res[3].kind == "complement"
    assert verify_induced_cycle(g.complement(), res[3].vertices)


def test_petersen_pentagon_count():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6),
             (6, 8), (8, 5), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    g = Graph.from_edges(10, edges)
    cycles, complete = count_induced_cycles(g, 5)
    assert complete and len(cycles) == 12
    assert all(verify_induced_cycle(g, c) for c in cycles)


def test_too_long_cycle_absent():
    res = induced_odd_cycles(Graph.cycle(5), 4)
    assert res[3].status == "absent" and res[4].status == "absent"


def test_verify_induced_cycle_rejects_chord():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert not verify_induced_cycle(g, (0, 1, 2, 3, 4))


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def test_report_pentagon():
    rep = compute_report(Graph.cycle(5), "c5", tol=1e-6, hilbert_dim=3)
    assert rep.get("alpha") == 2
    assert rep.get("omega") == 2
    assert rep.get("chi") == 3
    assert rep.get("clique_cover") == 3
    assert rep.get("alpha_star") == Fraction(5, 2)
    assert abs(rep.get("theta") - math.sqrt(5)) < 1e-5
    assert rep.get("sic_flag") is False
    payload = rep.to_json()
    assert '"alpha"' in payload and '"schema' not in payload


def test_report_sandwich_chain():
    rep = compute_report(Graph.cycle(7), "c7", tol=1e-6)
    tol = 1e-5
    assert rep.get("alpha") <= rep.get("theta") + tol
    assert rep.get("theta") <= float(rep.get("alpha_star")) + tol
    assert float(rep.get("alpha_star")) <= rep.get("clique_cover") + 1e-12


def _hint_from_complement_coloring(g):
    _, coloring = greedy_coloring(g.complement())
    return [[v for v in range(g.n) if coloring[v] == c] for c in sorted(set(coloring))]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_report_matches_brute(data):
    g = random_graph(data.draw, max_n=8)
    omega = brute_omega(g)
    hint = _hint_from_complement_coloring(g) if data.draw(st.booleans()) else None
    rep = compute_report(g, "random", hilbert_dim=omega, cover_hint=hint)
    alpha, chibar = brute_alpha(g), brute_chibar(g)
    truth = {"alpha": alpha, "omega": omega, "chi": brute_chi(g), "clique_cover": chibar}
    for name, value in truth.items():
        if rep.fields[name]["status"] == "exact":
            assert rep.get(name) == value, name
    assert rep.fields["omega"]["status"] == "exact"
    for name in ("alpha_star", "theta"):
        if rep.fields[name].get("route") == "sandwich":
            assert alpha == chibar
            assert rep.fields[name]["status"] == "exact" and rep.get(name) == alpha


@pytest.mark.parametrize("d,kind", [(2, "separable"), (7, "single")])
def test_sandwich_matches_sdp_and_lp(family, ortho_graph, d, kind):
    g = ortho_graph(d, kind)
    rep = compute_report(g, f"{kind}-d{d}", hilbert_dim=d if kind == "single" else d * d,
                         cover_hint=cover_hint_by_basis(family(d, kind)))
    assert rep.fields["theta"]["route"] == rep.fields["alpha_star"]["route"] == "sandwich"
    assert abs(rep.get("theta") - lovasz_theta(g).value) < 1e-5
    assert rep.get("alpha_star") == fractional_packing(g)[0]


@pytest.mark.parametrize("hint", [None, [[0, 1], [2, 3], [4, 5], [6]]])
def test_report_solves_each_clique_once(monkeypatch, hint):
    real = invariants.max_clique
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(invariants, "max_clique", counting)
    rep = compute_report(Graph.cycle(7), "c7", cover_hint=hint)
    assert len(calls) == 2
    assert rep.get("chi") == 3 and rep.get("clique_cover") == 4
