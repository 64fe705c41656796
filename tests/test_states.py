import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditctx.clifford import enumerate_clifford
from quditctx.errors import BudgetExceededError, ShapeMismatchError
from quditctx.pauli import PauliOperator
from quditctx.states import (
    StabilizerState,
    enumerate_single,
    enumerate_two_qudit,
    family_counts,
    group_tables,
    is_orthogonal,
    jamiolkowski_stabilizer,
    mub_operators,
    tensor_state,
)


# ---------------------------------------------------------------------------
# single-qudit families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,expected", [(2, 6), (3, 12), (5, 30)])
def test_single_counts(d, expected):
    fam = enumerate_single(d)
    assert len(fam) == expected == d * (d + 1)


def test_single_qubit_states_are_pauli_eigenstates():
    fam = enumerate_single(2)
    eigvecs = []
    for name, m in [
        ("X", np.array([[0, 1], [1, 0]], dtype=complex)),
        ("Y", np.array([[0, -1j], [1j, 0]])),
        ("Z", np.diag([1.0, -1.0]).astype(complex)),
    ]:
        w, v = np.linalg.eigh(m)
        eigvecs += [v[:, 0], v[:, 1]]
    projs = [np.outer(v, v.conj()) for v in eigvecs]
    matched = 0
    for s in fam.states:
        sp = s.projector_matrix()
        matched += any(np.abs(sp - p).max() < 1e-9 for p in projs)
    assert matched == 6


@pytest.mark.parametrize("d", [2, 3, 5])
def test_mub_overlap_structure(d):
    # Tr(B^a_b B^a'_b') = (1/d)(1 - delta_aa') + delta_aa' delta_bb'
    fam = enumerate_single(d)
    by_label = {}
    for s in fam.states:
        a, k = s.label[1:].split("v")
        by_label[(int(a), int(k))] = s
    for (a, b), s in by_label.items():
        for (a2, b2), t in by_label.items():
            tr = np.trace(s.projector_matrix() @ t.projector_matrix()).real
            if a == a2:
                expect = 1.0 if b == b2 else 0.0
            else:
                expect = 1.0 / d
            assert abs(tr - expect) < 1e-10


# ---------------------------------------------------------------------------
# two-qudit families (Table 1 scale)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "d,sep,ent,tot",
    [(2, 36, 24, 60), (3, 144, 216, 360)],
)
def test_two_qudit_counts(d, sep, ent, tot):
    assert len(enumerate_two_qudit(d, "separable")) == sep
    assert len(enumerate_two_qudit(d, "entangled")) == ent
    assert len(enumerate_two_qudit(d, "total")) == tot


def test_family_counts_formulas():
    assert family_counts(5) == {
        "single": 30,
        "separable": 900,
        "entangled": 3000,
        "total": 3900,
    }


def test_total_cap_raises():
    with pytest.raises(BudgetExceededError):
        enumerate_two_qudit(7, "total")


def test_separable_overlap_values():
    fam = enumerate_two_qudit(2, "separable")
    allowed = {0.0, 0.25, 0.5, 1.0}
    for i, s in enumerate(fam.states[:12]):
        sp = s.projector_matrix()
        for t in fam.states[i:]:
            tr = np.trace(sp @ t.projector_matrix()).real
            assert min(abs(tr - v) for v in allowed) < 1e-10


# ---------------------------------------------------------------------------
# orthogonality predicate
# ---------------------------------------------------------------------------

def test_self_not_orthogonal():
    s = enumerate_single(3).states[0]
    assert not is_orthogonal(s, s)


def test_same_basis_orthogonal():
    fam = enumerate_single(3)
    basis0 = [s for s in fam.states if s.label.startswith("b0")]
    assert len(basis0) == 3
    for s, t in itertools.combinations(basis0, 2):
        assert is_orthogonal(s, t)


def test_bell_state_shifted_is_orthogonal():
    from quditctx.clifford import identity_clifford

    for d in (2, 3):
        phi = jamiolkowski_stabilizer(identity_clifford(d))
        shifted = jamiolkowski_stabilizer(
            type(identity_clifford(d))(d, (1, 0, 0, 1), (1, 0))
        )
        assert is_orthogonal(phi, shifted)
        dense = np.trace(phi.projector_matrix() @ shifted.projector_matrix())
        assert abs(dense) < 1e-10


def test_shape_mismatch():
    s2 = enumerate_single(2).states[0]
    s3 = enumerate_single(3).states[0]
    with pytest.raises(ShapeMismatchError):
        is_orthogonal(s2, s3)


@pytest.mark.parametrize(
    "d,kind",
    [(d, kind) for d in (2, 3, 5) for kind in ("separable", "entangled")] + [(7, "single")],
)
def test_group_tables_match_group(family, d, kind):
    states = family(d, kind).states
    key_idx, phase = group_tables(states)
    n = states[0].n
    weights = [d ** (2 * n - 1 - k) for k in range(2 * n)]
    for s, keys, phases in zip(states, key_idx.tolist(), phase.tolist()):
        table = s.group()
        assert keys == [sum(w * v for w, v in zip(weights, x + z)) for x, z in table]
        assert phases == list(table.values())


@pytest.mark.parametrize("d", [2])
def test_exact_vs_dense_total_family(d):
    fam = enumerate_two_qudit(d, "total")
    projs = [s.projector_matrix() for s in fam.states]
    for i in range(len(fam.states)):
        for j in range(i + 1, len(fam.states)):
            dense = abs(np.trace(projs[i] @ projs[j]))
            assert is_orthogonal(fam.states[i], fam.states[j]) == (dense < 1e-10)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=60, deadline=None)
def test_canonical_form_generator_invariance(d, data):
    """Replacing generators by random group products canonicalizes identically."""
    from hypothesis import assume

    c = data.draw(st.sampled_from(enumerate_clifford(d)))
    s = jamiolkowski_stabilizer(c)
    g1, g2 = s.generators
    a = data.draw(st.integers(1, d - 1))
    b = data.draw(st.integers(0, d - 1))
    e = data.draw(st.integers(0, d - 1))
    assume((a - b * e) % d != 0)  # the new pair must stay independent
    new1 = g1**a * g2**b
    new2 = g2 * g1**e
    rebuilt = StabilizerState.from_generators([new1, new2])
    assert rebuilt.key == s.key


def test_canonical_equality_matches_dense():
    fam = enumerate_two_qudit(2, "entangled")
    for i, s in enumerate(fam.states):
        for t in fam.states[i + 1 :]:
            assert s.key != t.key
            assert np.abs(s.projector_matrix() - t.projector_matrix()).max() > 1e-6


def test_dependent_generators_rejected():
    g = PauliOperator(3, (1, 0), (0, 0))
    with pytest.raises(ValueError):
        StabilizerState.from_generators([g, g * g])


def test_noncommuting_generators_rejected():
    x = PauliOperator(2, (1, 0), (0, 0))
    z = PauliOperator(2, (0, 0), (1, 0))
    with pytest.raises(ValueError):
        StabilizerState.from_generators([x, z])


# ---------------------------------------------------------------------------
# projector facts and export
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3])
def test_projectors_are_rank1(d):
    for s in enumerate_single(d).states:
        p = s.projector_matrix()
        assert abs(np.trace(p).real - 1) < 1e-10
        assert np.abs(p @ p - p).max() < 1e-10
        assert np.abs(p - p.conj().T).max() < 1e-12


def test_tensor_state_matches_kron():
    a = enumerate_single(3).states[2]
    b = enumerate_single(3).states[7]
    t = tensor_state(a, b)
    assert np.abs(
        t.projector_matrix() - np.kron(a.projector_matrix(), b.projector_matrix())
    ).max() < 1e-10


def test_json_export_roundtrip_fields():
    fam = enumerate_single(2)
    records = json.loads(fam.to_json())
    assert len(records) == 6
    rec = records[0]
    assert set(rec) == {"kind", "d", "label", "generators"}
    assert rec["kind"] == "single" and rec["d"] == 2
    gen = rec["generators"][0]
    assert set(gen) == {"x", "z", "phase"}


def test_mub_operator_list():
    ops = mub_operators(3)
    assert len(ops) == 4
    assert ops[0].key == ((0,), (1,))
    assert ops[1].key == ((1,), (0,))
