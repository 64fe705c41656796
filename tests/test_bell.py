import math
from fractions import Fraction

import numpy as np
import pytest

from quditctx import bell
from quditctx.bell import (
    MAX_CHSH_DIMENSION,
    _single_eigenstate,
    alternate_chsh_scenario,
    chsh_block_labels,
    chsh_operator,
    chsh_scenario,
    iter_alternate_chsh_solutions,
    kcbs_scenario,
    kcbs_vectors,
    peres_mermin,
    regularity_conjecture_check,
)
from quditctx.errors import DecompositionMismatchError, UnsupportedDimensionError
from quditctx.graphs import Graph, find_isomorphism
from quditctx.invariants import (
    fractional_packing,
    independence_number,
    lovasz_theta,
    verify_independent_set,
)
from quditctx.pauli import PauliOperator, pauli_matrix
from quditctx.states import is_orthogonal, tensor_state


# ---------------------------------------------------------------------------
# Bell operators
# ---------------------------------------------------------------------------

def test_qubit_operator_matches_xy_form():
    b = chsh_operator(2)
    X = pauli_matrix(PauliOperator(2, (1,), (0,)))
    Y = pauli_matrix(PauliOperator(2, (1,), (1,)))
    want = np.kron(X, X) + np.kron(X, Y) + np.kron(Y, X) - np.kron(Y, Y)
    assert np.abs(b.matrix - want).max() < 1e-12


@pytest.mark.parametrize("d,bound", [(2, 2), (3, 9), (5, 35), (7, 84)])
def test_classical_bounds(d, bound, chsh):
    # the NCHV bound on <B> follows from alpha as d*alpha - d^2
    alpha = chsh(d).nchv_bound
    assert alpha.exact and d * alpha.size - d * d == bound


def test_operator_hermitian():
    for d in (2, 3, 5):
        m = chsh_operator(d).matrix
        assert np.abs(m - m.conj().T).max() < 1e-10


def test_unsupported_dimension():
    assert MAX_CHSH_DIMENSION == 7
    with pytest.raises(UnsupportedDimensionError):
        chsh_operator(11)


def test_qubit_block_labels():
    assert chsh_block_labels(2) == {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}


def test_qutrit_block_labels_match_printed_list_up_to_mirror():
    """The printed d=3 label list corresponds to the z -> -z relabeling of the
    X|j> = |j+1>, Z|j> = w^j |j> convention used here; the dense identity
    (checked in chsh_scenario) pins our assignment."""
    printed = {
        (0, 0): 0, (0, 1): 0, (0, 2): 1,
        (1, 0): 0, (1, 1): 1, (1, 2): 0,
        (2, 0): 1, (2, 1): 0, (2, 2): 0,
    }
    mirrored = {((-z1) % 3, (-z2) % 3): k for (z1, z2), k in printed.items()}
    assert chsh_block_labels(3) == mirrored


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "d,order,reg,alpha,lmax",
    [(2, 8, 3, 3, 3.414), (3, 27, 10, 6, 6.412)],
)
def test_chsh_scenario_paper_rows(d, order, reg, alpha, lmax, chsh):
    sc = chsh(d)
    assert sc.graph.n == order == d**3
    assert sc.graph.is_regular() == reg == (2 * d - 1) * (d - 1)
    assert regularity_conjecture_check(sc)
    assert sc.nchv_bound.size == alpha and sc.nchv_bound.exact
    assert abs(sc.qm_value - lmax) < 1e-3
    assert verify_independent_set(sc.graph, sc.nchv_bound.witness)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_strategy_alpha_matches_branch_and_bound(d, chsh):
    sc = chsh(d)
    res = independence_number(sc.graph)
    assert res.exact and res.size == sc.nchv_bound.size


def label_rule_rows(tags):
    """The CHSH graph by its label rule: (z1,a,z2,b) ~ (z1',a',z2',b') iff a
    factor shares its basis and differs in eigenvalue."""
    n = len(tags)
    rows = [0] * n
    for i, (z1, z2, _, a, b) in enumerate(tags):
        for j, (y1, y2, _, c, e) in enumerate(tags):
            if (z1 == y1 and a != c) or (z2 == y2 and b != e):
                rows[i] |= 1 << j
    return tuple(rows)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_chsh_graph_matches_label_rule(d, chsh):
    """The Gram-built graph agrees with the label rule, and at d <= 3 with
    the exact stabilizer orthogonality predicate on every pair."""
    sc = chsh(d)
    tags = sc.projector_labels
    assert sc.graph.rows == label_rule_rows(tags)
    assert sc.graph.labels == tuple(
        f"(1|{z1})[{a}]x(1|{z2})[{b}]" for (z1, z2, _, a, b) in tags
    )
    if d <= 3:
        states = [
            tensor_state(_single_eigenstate(d, z1, a), _single_eigenstate(d, z2, b))
            for (z1, z2, _, a, b) in tags
        ]
        for i in range(d**3):
            for j in range(i + 1, d**3):
                assert sc.graph.has_edge(i, j) == is_orthogonal(states[i], states[j])


def test_qubit_graph_is_trace_orthogonality(chsh):
    sc = chsh(2)
    assert np.abs(sc.sigma - sc.sigma.conj().T).max() < 1e-12
    mats = sc.projectors
    assert len(mats) == 8
    for i in range(8):
        for j in range(i + 1, 8):
            tr = abs(np.trace(mats[i] @ mats[j]))
            assert sc.graph.has_edge(i, j) == (tr < 1e-10)


def test_scenario_projectors_are_valid_rank1(chsh):
    sc = chsh(3)
    assert len(set(map(tuple, sc.projector_labels))) == 27
    for p in sc.projectors:
        assert abs(np.trace(p).real - 1) < 1e-10
        assert np.abs(p @ p - p).max() < 1e-10
    # Sigma reconstructs the Bell operator
    b = chsh_operator(3).matrix
    assert np.abs(3 * sc.sigma - 9 * np.eye(9) - b).max() < 1e-9


@pytest.mark.parametrize("d", [3, 5])
def test_kron_projectors_match_stabilizer_projectors(d, chsh):
    sc = chsh(d)
    for (z1, z2, _, a, b), proj in zip(sc.projector_labels, sc.projectors):
        st = tensor_state(_single_eigenstate(d, z1, a), _single_eigenstate(d, z2, b))
        assert np.abs(proj - st.projector_matrix()).max() < 1e-12


def test_flipped_label_fails_identity_check(monkeypatch):
    labels = chsh_block_labels(3)
    flipped = dict(labels)
    flipped[(1, 2)] = (labels[(1, 2)] + 1) % 3
    monkeypatch.setattr(bell, "chsh_block_labels", lambda d: flipped)
    with pytest.raises(DecompositionMismatchError):
        chsh_scenario(3)


def test_qubit_theta_value(chsh):
    th = lovasz_theta(chsh(2).graph, tol=1e-6)
    assert abs(th.value - (2 + math.sqrt(2))) < 1e-4


def test_qubit_alpha_star(chsh):
    val, _ = fractional_packing(chsh(2).graph)
    assert val == Fraction(4)


# ---------------------------------------------------------------------------
# Peres-Mermin
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pm_record():
    return peres_mermin()


def test_pm_products(pm_record):
    assert pm_record.row_product_dev < 1e-12
    assert pm_record.col_product_dev < 1e-12


def test_pm_no_consistent_assignment(pm_record):
    assert pm_record.consistent_assignments == 0


def test_pm_projector_graph(pm_record):
    assert len(pm_record.projectors) == 24
    assert pm_record.graph.is_regular() == 9


def test_pm_equivalent_to_entangled_graph(pm_record, ortho_graph):
    assert pm_record.equivalent_to_entangled_graph
    from quditctx.graphs import verify_bijection

    ent = ortho_graph(2, "entangled")
    assert verify_bijection(pm_record.graph, ent, pm_record.ent_bijection)


# ---------------------------------------------------------------------------
# KCBS
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def kcbs():
    return kcbs_scenario()


def test_kcbs_vectors_unit_and_cyclic():
    vecs = kcbs_vectors()
    for i, v in enumerate(vecs):
        assert abs(np.linalg.norm(v) - 1) < 1e-12
        assert abs(np.dot(v, vecs[(i + 1) % 5])) < 1e-12


def test_kcbs_graph_is_pentagon(kcbs):
    assert find_isomorphism(kcbs.graph, Graph.cycle(5)) is not None
    assert kcbs.graph.is_regular() == 2


def test_kcbs_bounds(kcbs):
    assert kcbs.nchv_bound.size == 2
    assert abs(kcbs.qm_value - math.sqrt(5)) < 1e-6


# ---------------------------------------------------------------------------
# alternate CHSH realization
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def alt():
    return alternate_chsh_scenario()


def test_alternate_identity(alt):
    assert alt.identity_dev < 1e-9


def test_alternate_graph_is_pan_complement(alt):
    assert alt.pan_complement_bijection is not None
    from quditctx.graphs import verify_bijection

    assert verify_bijection(
        alt.scenario.graph, Graph.pan(5).complement(), alt.pan_complement_bijection
    )


def test_alternate_bounds(alt):
    assert alt.scenario.nchv_bound.size == 2
    th = lovasz_theta(alt.scenario.graph, tol=1e-6)
    assert abs(th.value - math.sqrt(5)) < 1e-5
    astar, _ = fractional_packing(alt.scenario.graph)
    assert astar == Fraction(5, 2)


def test_two_realizations_not_isomorphic(alt, chsh):
    """Eight- and six-projector graphs both encode <B> <= 2 yet differ."""
    g8 = chsh(2).graph
    g6 = alt.scenario.graph
    assert g8.n != g6.n
    # both collapse to the same Bell bound through their own affine maps
    assert 2 * chsh(2).nchv_bound.size - 4 == 2
    assert 4 * alt.scenario.nchv_bound.size - 6 == 2


def test_solution_space_structure():
    sols = list(iter_alternate_chsh_solutions())
    assert len(sols) == 80
    pan = Graph.pan(5).complement()

    pan_count = 0
    for states in sols:
        n = len(states)
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if is_orthogonal(states[i], states[j]):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        if find_isomorphism(Graph(n, rows), pan) is not None:
            pan_count += 1
    assert pan_count == 16
