"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; extended-budget items (the d=5 entangled and total independence
numbers, and the d=7 CHSH alpha by branch and bound) are behind --runslow.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from quditctx.bell import (
    alternate_chsh_scenario,
    chsh_scenario,
    kcbs_scenario,
    peres_mermin,
)
from quditctx.clifford import (
    clifford_trace_abs,
    clifford_unitary,
    conjugacy_classes,
    enumerate_clifford,
    is_conjugation_closed,
    traceless_set,
)
from quditctx.graphs import (
    Graph,
    cayley_graph,
    orthogonality_graph,
    verify_bijection,
)
from quditctx.invariants import (
    chromatic_number,
    clique_cover,
    count_induced_cycles,
    fractional_packing,
    independence_number,
    induced_odd_cycles,
    lovasz_theta,
    max_clique,
    theta_cycle_closed_form,
    verify_independent_set,
)
from quditctx.pauli import PauliOperator, eigenprojector, rank1_decompose
from quditctx.states import (
    enumerate_two_qudit,
    is_orthogonal,
    jamiolkowski_stabilizer,
)

BUDGET = 60.0


def record(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{criterion}: {detail}"


def basis_cover_hint(fam) -> list[list[int]]:
    blocks: dict[frozenset, list[int]] = {}
    for i, s in enumerate(fam.states):
        blocks.setdefault(s.group_keys(), []).append(i)
    return [sorted(b) for b in sorted(blocks.values())]


# ---------------------------------------------------------------------------
# criterion 1: Table-1 family counts
# ---------------------------------------------------------------------------

def test_c01_family_counts(family):
    t0 = time.monotonic()
    results = []
    for d in (2, 3, 5):
        sep = len(family(d, "separable"))
        ent = len(family(d, "entangled"))
        tot = len(family(d, "total"))
        results.append(
            sep == (d * (d + 1)) ** 2
            and ent == d**3 * (d * d - 1)
            and tot == d * d * (d * d + 1) * (d + 1)
        )
    elapsed = time.monotonic() - t0
    record(
        "criterion 01 counts",
        all(results) and elapsed < 60.0,
        f"d=2,3,5 family sizes exact, {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# criterion 2: Table-2 independence numbers
# ---------------------------------------------------------------------------

def test_c02_alpha_separable(ortho_graph):
    vals = {}
    for d in (2, 3, 5):
        res = independence_number(ortho_graph(d, "separable"), BUDGET)
        assert res.exact
        vals[d] = res.size
    record(
        "criterion 02 alpha(sep)",
        vals == {2: 9, 3: 16, 5: 36},
        f"computed {vals}, expected (d+1)^2",
    )


def test_c02_alpha_entangled(ortho_graph):
    vals = {}
    for d in (2, 3):
        res = independence_number(ortho_graph(d, "entangled"), BUDGET)
        assert res.exact
        vals[d] = res.size
    record("criterion 02 alpha(ent)", vals == {2: 5, 3: 24}, f"computed {vals}")


def test_c02_alpha_total_qubits(ortho_graph):
    res = independence_number(ortho_graph(2, "total"), BUDGET)
    record(
        "criterion 02 alpha(tot,d=2)",
        res.exact and res.size == 12,
        f"computed {res.size}",
    )


def test_c02_alpha_total_qutrits_typo(ortho_graph):
    """Table 2/3 print 340 here; the table's own formula row gives
    (d^2+1)(d+1) = 40.  The solver decides: computed exact value is asserted
    against the formula and the printed 340 is recorded as a suspected typo."""
    res = independence_number(ortho_graph(3, "total"), BUDGET)
    record(
        "criterion 02 alpha(tot,d=3)",
        res.exact and res.size == 40,
        f"computed exact {res.size}; formula row gives 40; printed 340 is a "
        "suspected typo",
    )


@pytest.mark.slow
def test_c02_alpha_entangled_d5_extended(ortho_graph):
    # the warm start plus root coloring bound settle this at the first node;
    # the budget is slack for slower machines
    res = independence_number(ortho_graph(5, "entangled"), budget=1800.0)
    record(
        "criterion 02 alpha(ent,d=5) extended",
        res.exact and res.size == 120,
        f"computed {res.size}, exact={res.exact} in {res.elapsed:.0f}s",
    )


@pytest.mark.slow
def test_c02_alpha_total_d5_extended():
    fam = enumerate_two_qudit(5, "total")
    g = orthogonality_graph(fam)
    res = independence_number(g, budget=1800.0)
    record(
        "criterion 02 alpha(tot,d=5) extended",
        res.exact and res.size == 156,
        f"computed {res.size}, exact={res.exact} in {res.elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: Table-3 clique covers
# ---------------------------------------------------------------------------

def test_c03_cover_separable(family, ortho_graph):
    vals = {}
    for d in (2, 3, 5):
        g = ortho_graph(d, "separable")
        hint = basis_cover_hint(family(d, "separable"))
        cov = clique_cover(g, hint=hint, lower_bound=-(-g.n // (d * d)))
        assert cov.exact
        vals[d] = cov.size
    record(
        "criterion 03 chibar(sep)",
        vals == {2: 9, 3: 16, 5: 36},
        f"basis partitions verify {vals} = (d+1)^2",
    )


def test_c03_cover_entangled(family, ortho_graph):
    vals = {}
    for d in (2, 3, 5):
        g = ortho_graph(d, "entangled")
        hint = basis_cover_hint(family(d, "entangled"))
        # rank-1 projectors in C^{d^2}: no clique exceeds d^2, so
        # chibar >= n/d^2, which the coset partition meets
        cov = clique_cover(g, hint=hint, lower_bound=-(-g.n // (d * d)))
        assert cov.exact
        vals[d] = cov.size
    record(
        "criterion 03 chibar(ent)",
        vals == {2: 6, 3: 24, 5: 120},
        f"coset partitions verify {vals} = d(d^2-1)",
    )


def test_c03_cover_total(family, ortho_graph):
    vals = {}
    for d in (2, 3):
        g = ortho_graph(d, "total")
        hint = basis_cover_hint(family(d, "total"))
        cov = clique_cover(g, hint=hint, lower_bound=-(-g.n // (d * d)))
        assert cov.exact
        vals[d] = cov.size
    record(
        "criterion 03 chibar(tot)",
        vals == {2: 15, 3: 40},
        f"basis partitions verify {vals} = (d^2+1)(d+1)",
    )


# ---------------------------------------------------------------------------
# criterion 4: SIC-condition dichotomy
# ---------------------------------------------------------------------------

def test_c04_sic_dichotomy(ortho_graph):
    g2 = ortho_graph(2, "entangled")
    alpha2 = independence_number(g2, BUDGET)
    chi2 = chromatic_number(g2, BUDGET)
    qubit_ok = alpha2.size == 5 and chi2.exact and chi2.value == 5 and chi2.value > 4

    g3 = ortho_graph(3, "entangled")
    assert is_conjugation_closed(traceless_set(3))  # normal Cayley premise
    alpha3 = independence_number(g3, BUDGET)
    chi3 = chromatic_number(g3, BUDGET, alpha=alpha3, normal_cayley=True)
    qutrit_ok = (
        chi3.exact
        and chi3.route == "normal-cayley"
        and chi3.value == 9
        and alpha3.size * 9 == g3.n
    )
    record(
        "criterion 04 SIC dichotomy",
        qubit_ok and qutrit_ok,
        f"d=2: alpha=5, chi=5 > D=4 (SIC); d=3: chi=9=D via normal-Cayley "
        f"(alpha*omega = {alpha3.size}*9 = {g3.n})",
    )


# ---------------------------------------------------------------------------
# criterion 5: traceless set and the Cayley identification
# ---------------------------------------------------------------------------

def test_c05_traceless_counts():
    ok = True
    detail = []
    for d in (3, 5, 7):
        T = traceless_set(d)
        expect = (d * (d - 1) + 1) * (d * d - 1)
        sizes = sorted(len(c) for c in conjugacy_classes(T))
        class_sum_ok = sum(sizes) == expect
        shape_ok = sizes == sorted([d * d - 1] + [d * (d * d - 1)] * (d - 1))
        ok = ok and len(T) == expect and class_sum_ok and shape_ok
        detail.append(f"d={d}: |T|={len(T)}")
    record(
        "criterion 05 |T| enumeration + class sums",
        ok,
        "; ".join(detail),
    )


def test_c05_cayley_edge_identity(family, ortho_graph):
    t0 = time.monotonic()
    els = enumerate_clifford(3)
    g = cayley_graph(els, traceless_set(3))
    ent = family(3, "entangled")
    og = ortho_graph(3, "entangled")
    index = {s.key: i for i, s in enumerate(ent.states)}
    perm = [index[jamiolkowski_stabilizer(c).key] for c in els]
    identical = g.relabeled(perm).edge_set() == og.edge_set()
    elapsed = time.monotonic() - t0
    record(
        "criterion 05 Cayley = orthogonality (d=3)",
        identical and elapsed < 600,
        f"exhaustive edge match on 216 vertices in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: trace-formula agreement
# ---------------------------------------------------------------------------

def test_c06_trace_formula_agreement():
    worst = 0.0
    els = enumerate_clifford(3)
    for c in els:
        num = abs(np.trace(clifford_unitary(c)))
        worst = max(worst, abs(num - clifford_trace_abs(c)))
    record(
        "criterion 06 trace formulas (d=3)",
        worst < 1e-9,
        f"all {len(els)} elements, max deviation {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 7: CHSH pipeline (Table 4)
# ---------------------------------------------------------------------------

TABLE4 = {
    2: {"alpha": 3, "lmax": 3.414, "theta": 3.414214, "bound": 2},
    3: {"alpha": 6, "lmax": 6.412, "theta": 7.098076, "bound": 9},
    5: {"alpha": 12, "lmax": 13.090, "theta": 18.090170, "bound": 35},
    7: {"alpha": 19, "lmax": 19.411, "theta": 33.760130, "bound": 84},
}


def test_c07_chsh_small_d(chsh):
    ok = True
    details = []
    for d in (2, 3, 5):
        sc = chsh(d)
        row = TABLE4[d]
        ok &= sc.graph.n == d**3
        ok &= sc.graph.is_regular() == (2 * d - 1) * (d - 1)
        ok &= sc.nchv_bound.exact and sc.nchv_bound.size == row["alpha"]
        ok &= abs(sc.qm_value - row["lmax"]) < 1e-3
        ok &= sc.qm_value > sc.nchv_bound.size  # state-dependent contextuality
        ok &= d * sc.nchv_bound.size - d * d == row["bound"]
        details.append(f"d={d}: alpha={sc.nchv_bound.size} lmax={sc.qm_value:.4f}")
    record("criterion 07 CHSH d=2,3,5 core", ok, "; ".join(details))


def test_c07_chsh_theta_small_d(chsh):
    th2 = lovasz_theta(chsh(2).graph, tol=1e-4)
    th3 = lovasz_theta(chsh(3).graph, tol=1e-4)
    ok = abs(th2.value - TABLE4[2]["theta"]) < 1e-3
    ok &= abs(th3.value - TABLE4[3]["theta"]) < 1e-3
    record(
        "criterion 07 theta d<=3",
        ok,
        f"theta2={th2.value:.4f}, theta3={th3.value:.4f}",
    )


def test_c07_chsh_d7_structure(chsh):
    sc = chsh(7)
    th = lovasz_theta(sc.graph, tol=1e-6)
    ok = sc.graph.n == 343
    ok &= sc.graph.is_regular() == 78
    ok &= abs(sc.qm_value - TABLE4[7]["lmax"]) < 1e-3
    ok &= sc.nchv_bound.exact and sc.nchv_bound.size == TABLE4[7]["alpha"]
    ok &= 7 * sc.nchv_bound.size - 49 == TABLE4[7]["bound"]
    ok &= th.route == "scheme" and th.converged and th.gap <= 1e-6
    ok &= abs(th.value - TABLE4[7]["theta"]) < 1e-6
    record(
        "criterion 07 CHSH d=7 structure",
        ok,
        f"|G|={sc.graph.n}, reg={sc.graph.is_regular()}, lmax={sc.qm_value:.4f}, "
        f"alpha={sc.nchv_bound.size} by strategies, theta={th.value:.6f} by the "
        f"association scheme (certified gap {th.gap:.1e})",
    )


def test_c07_chsh_theta_pinned(chsh):
    details = []
    ok = True
    for d in (2, 3, 5, 7):
        th = lovasz_theta(chsh(d).graph, tol=1e-6)
        ok &= th.converged and th.gap <= 1e-6
        ok &= abs(th.value - TABLE4[d]["theta"]) < 1e-6
        details.append(f"d={d}: {th.value:.7f} ({th.route})")
    record("criterion 07 theta to 1e-6", ok, "; ".join(details))


def test_c07_chsh_theta_d5(chsh):
    # stated as an extended-budget item; the association scheme gives the
    # certified bracket in well under a second at 125 vertices
    th = lovasz_theta(chsh(5).graph, tol=1e-3, max_iter=400_000)
    record(
        "criterion 07 theta d=5",
        abs(th.value - TABLE4[5]["theta"]) < 5e-2 and th.gap < 1e-2,
        f"theta={th.value:.5f} (certified gap {th.gap:.1e})",
    )


@pytest.mark.slow
def test_c07_chsh_alpha_d7_extended():
    # branch and bound (35-40 min, ~85M nodes) against the strategy value
    sc = chsh_scenario(7)
    res = independence_number(sc.graph, 4 * 3600.0)
    ok = res.exact and res.size == sc.nchv_bound.size == 19
    record(
        "criterion 07 alpha d=7 extended",
        ok,
        f"branch and bound {res.size} (exact={res.exact}, {res.elapsed:.0f}s), "
        f"strategies {sc.nchv_bound.size}",
    )


# ---------------------------------------------------------------------------
# criterion 8: induced odd cycles
# ---------------------------------------------------------------------------

def test_c08_qubit_pentagons_exhaustive(chsh):
    t0 = time.monotonic()
    g = chsh(2).graph
    pentagons, complete5 = count_induced_cycles(g, 5)
    sevens_g, complete7 = count_induced_cycles(g, 7)
    sevens_c, complete7c = count_induced_cycles(g.complement(), 7)
    elapsed = time.monotonic() - t0
    ok = (
        complete5
        and complete7
        and complete7c
        and len(pentagons) == 8
        and not sevens_g
        and not sevens_c
        and elapsed < 60
    )
    record(
        "criterion 08 qubit pentagons",
        ok,
        f"8 induced C5, no C7 or complement, exhaustive in {elapsed:.2f}s",
    )


def test_c08_qutrit_witnesses(chsh):
    res = induced_odd_cycles(chsh(3).graph, 4, budget=BUDGET)
    ok = all(res[k].status == "found" for k in (2, 3, 4))
    wits = {k: (res[k].kind, res[k].vertices) for k in (2, 3, 4)}
    for k in (2, 3, 4):
        kind, verts = wits[k]
        host = chsh(3).graph if kind == "cycle" else chsh(3).graph.complement()
        ring = verts
        L = len(ring)
        for i in range(L):
            for j in range(i + 1, L):
                expect = (j - i) % L in (1, L - 1)
                ok &= host.has_edge(ring[i], ring[j]) == expect
    record(
        "criterion 08 qutrit cycles",
        ok,
        f"witnesses for k=2,3,4: {[wits[k][0] for k in (2,3,4)]}",
    )


# ---------------------------------------------------------------------------
# criterion 9: Peres-Mermin
# ---------------------------------------------------------------------------

def test_c09_peres_mermin(ortho_graph):
    rec = peres_mermin()
    ent = ortho_graph(2, "entangled")
    bij_ok = rec.ent_bijection is not None and verify_bijection(
        rec.graph, ent, rec.ent_bijection
    )
    ok = (
        rec.row_product_dev < 1e-12
        and rec.col_product_dev < 1e-12
        and rec.consistent_assignments == 0
        and bij_ok
    )
    record(
        "criterion 09 Peres-Mermin",
        ok,
        f"rows=+I cols=-I to {max(rec.row_product_dev, rec.col_product_dev):.1e}; "
        f"0/512 consistent assignments; 24-projector graph = ent graph",
    )


# ---------------------------------------------------------------------------
# criterion 10: KCBS and the sandwich chain
# ---------------------------------------------------------------------------

def test_c10_kcbs():
    sc = kcbs_scenario()
    th = lovasz_theta(sc.graph, tol=1e-6)
    astar, _ = fractional_packing(sc.graph)
    ok = (
        sc.nchv_bound.size == 2
        and abs(th.value - math.sqrt(5)) < 1e-5
        and astar == Fraction(5, 2)
    )
    record(
        "criterion 10 KCBS",
        ok,
        f"alpha=2, theta={th.value:.6f}, alpha*={astar}",
    )


def test_c10_sandwich_on_computed_graphs(chsh, ortho_graph):
    tol = 1e-4
    graphs = {
        "c5": Graph.cycle(5),
        "c7": Graph.cycle(7),
        "c9": Graph.cycle(9),
        "chsh2": chsh(2).graph,
        "chsh3": chsh(3).graph,
        "alt6": alternate_chsh_scenario().scenario.graph,
        "sep2": ortho_graph(2, "separable"),
        "ent2": ortho_graph(2, "entangled"),
        "tot2": ortho_graph(2, "total"),
    }
    checked = []
    ok = True
    for name, g in graphs.items():
        alpha = independence_number(g, BUDGET)
        theta = lovasz_theta(g, tol=1e-5)
        astar, _ = fractional_packing(g)
        om = max_clique(g, BUDGET)
        lower = max(alpha.size, -(-g.n // om.size)) if om.exact else alpha.size
        cover = clique_cover(g, budget=BUDGET) if g.n <= 64 else None
        chain = alpha.size <= theta.value + tol <= float(astar) + 2 * tol
        if cover is not None:
            chain &= float(astar) <= cover.size + 1e-9
        ok &= chain and alpha.exact
        checked.append(name)
    record(
        "criterion 10 sandwich chain",
        ok,
        f"alpha <= theta <= alpha* <= chibar on {', '.join(checked)}",
    )


# ---------------------------------------------------------------------------
# criterion 11: alternate CHSH realization
# ---------------------------------------------------------------------------

def test_c11_alternate_chsh():
    rec = alternate_chsh_scenario()
    th = lovasz_theta(rec.scenario.graph, tol=1e-6)
    astar, _ = fractional_packing(rec.scenario.graph)
    pan_ok = rec.pan_complement_bijection is not None and verify_bijection(
        rec.scenario.graph,
        Graph.pan(5).complement(),
        rec.pan_complement_bijection,
    )
    ok = (
        rec.identity_dev < 1e-9
        and pan_ok
        and rec.scenario.nchv_bound.size == 2
        and abs(th.value - math.sqrt(5)) < 1e-5
        and astar == Fraction(5, 2)
    )
    record(
        "criterion 11 alternate CHSH",
        ok,
        f"4*Sigma-6I=B to {rec.identity_dev:.1e}; graph = 5-pan complement; "
        f"alpha=2, theta={th.value:.6f}, alpha*={astar}",
    )


# ---------------------------------------------------------------------------
# criterion 12: property suites
# ---------------------------------------------------------------------------

def test_c12_rank1_identity_all_labels():
    ok = True
    cases = 0
    for d in (2, 3, 5):
        for x1, z1, x2, z2 in itertools.product(range(d), repeat=4):
            if (x1, z1) == (0, 0) or (x2, z2) == (0, 0):
                continue
            p = PauliOperator(d, (x1, x2), (z1, z2))
            for k in range(d):
                parts = rank1_decompose(p, k)
                total = sum(q.matrix for q in parts)
                ok &= np.abs(total - eigenprojector(p, k).matrix).max() < 1e-10
                cases += 1
    record(
        "criterion 12 rank-1 decomposition identity",
        ok,
        f"{cases} two-local labels across d=2,3,5",
    )


def test_c12_orthogonality_exact_vs_dense(family):
    ok = True
    for d in (2, 3):
        fam = family(d, "total")
        mats = np.array([s.projector_matrix() for s in fam.states])
        n = len(fam.states)
        flat = mats.reshape(n, -1)
        flat_t = mats.transpose(0, 2, 1).reshape(n, -1)
        overlap = np.abs(flat @ flat_t.T)
        for i in range(n):
            for j in range(i + 1, n):
                ok &= is_orthogonal(fam.states[i], fam.states[j]) == (
                    overlap[i, j] < 1e-10
                )
    record(
        "criterion 12 exact vs dense orthogonality",
        ok,
        "all pairs in the d=2 (60) and d=3 (360) total families",
    )


def _oracle_alpha(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        vs = [v for v in range(g.n) if mask >> v & 1]
        if len(vs) > best and verify_independent_set(g, vs):
            best = len(vs)
    return best


def test_c12_small_graph_oracle_agreement():
    rng = np.random.default_rng(2026)
    graphs = [Graph.cycle(5), Graph.cycle(7), Graph.pan(5).complement(),
              Graph.complete(6), Graph.empty(5)]
    for _ in range(12):
        n = int(rng.integers(4, 11))
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45
        ]
        graphs.append(Graph.from_edges(n, edges))
    ok = True
    for g in graphs:
        ok &= independence_number(g, BUDGET).size == _oracle_alpha(g)
        ok &= max_clique(g, BUDGET).size == _oracle_alpha(g.complement())
        chi = chromatic_number(g, BUDGET)
        ok &= chi.exact and chi.value == _oracle_chi_sets(g)
        ok &= clique_cover(g, budget=BUDGET).size == _oracle_chi_sets(g.complement())
    record(
        "criterion 12 small-graph oracles",
        ok,
        f"alpha/omega/chi/chibar vs exhaustive oracles on {len(graphs)} graphs <= 12 vertices",
    )


def _oracle_chi_sets(g: Graph) -> int:
    """Chromatic number by exact set-cover over independent sets (memoized)."""
    full = (1 << g.n) - 1
    from functools import lru_cache as _lru

    @_lru(maxsize=None)
    def rec(mask: int) -> int:
        if mask == 0:
            return 0
        v = (mask & -mask).bit_length() - 1
        best = g.n
        # enumerate maximal independent subsets of mask containing v
        def grow(cur: int, cand: int):
            nonlocal best
            if cand == 0:
                best = min(best, 1 + rec(mask & ~cur))
                return
            u = (cand & -cand).bit_length() - 1
            grow(cur | (1 << u), cand & ~g.rows[u] & ~(1 << u))
            grow(cur, cand & ~(1 << u))

        grow(1 << v, mask & ~g.rows[v] & ~(1 << v))
        return best

    return rec(full)


def test_c12_theta_closed_forms():
    ok = True
    details = []
    for k in range(2, 7):
        m = 2 * k + 1
        th = lovasz_theta(Graph.cycle(m), tol=1e-6)
        closed = theta_cycle_closed_form(m)
        ok &= abs(th.value - closed) < 1e-4
        details.append(f"C{m}:{th.value:.5f}")
    record("criterion 12 theta closed forms", ok, "; ".join(details))
