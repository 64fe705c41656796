"""Bell-CHSH operators, their stabilizer rank-1 decompositions, and the
classic single-system scenarios (Peres-Mermin square, KCBS pentagon, and the
six-projector CHSH realization on the complement of the 5-pan graph).

The qudit Bell operator (odd prime d) uses the measurement family

    A_j = omega^{j(j+1)} X Z^j,   B_k = omega^{(2^{-1})^2 (k^2+2k)} X Z^{2^{-1} k}

summed as B = sum_{n in Z_d*, j,k} omega^{njk} A_j^n (x) B_k^n, which collapses
to d * Sigma - d^2 * I over d^2 rank-d Pauli eigenprojectors.  Labels are
derived by exact phased-Pauli arithmetic and then validated against the dense
identity, which is the binding check.  Sigma is summed from the d^3 product
projectors, each the kron of two of the d^2 single-qudit eigenprojectors, so
no two-qudit projector is expanded over its stabilizer group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    DecompositionMismatchError,
    SearchFailedError,
    UnsupportedDimensionError,
)
from .graphs import Graph, find_isomorphism, orthogonality_graph
from .invariants import CliqueResult, independence_number, verify_independent_set
from .pauli import PauliOperator, hermitian_eigen, omega, omega_exp, pauli_matrix
from .states import StabilizerState, StateFamily, enumerate_two_qudit, tensor_state
from .zmod import mod_inverse, require_prime

# Largest dimension with a CHSH scenario: alpha comes from d^(d-1) strategies,
# about 1.2e5 at d=7 and 1e10 at d=11.
MAX_CHSH_DIMENSION = 7


@dataclass
class BellOperator:
    d: int
    matrix: np.ndarray
    measurement_labels: dict


@dataclass
class ContextualityScenario:
    """A projector realization of a noncontextuality witness Sigma."""

    name: str
    d: int
    projectors: list[np.ndarray]
    projector_labels: list[tuple]
    graph: Graph
    sigma: np.ndarray
    nchv_bound: CliqueResult
    qm_value: float
    theta_bound: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "d": self.d,
            "projector_labels": [list(map(str, lab)) for lab in self.projector_labels],
            "graph": {"n": self.graph.n, "edges": [[i, j] for i, j in self.graph.edges()]},
            "bounds": {
                "nchv": self.nchv_bound.size,
                "nchv_status": self.nchv_bound.status,
                "qm_stabilizer": self.qm_value,
                "theta": self.theta_bound,
            },
        }


def _measurement_paulis(d: int) -> tuple[list[PauliOperator], list[PauliOperator]]:
    """The phased Paulis A_j, B_k as exact objects (odd d)."""
    inv2 = mod_inverse(2, d)
    A = [PauliOperator(d, (1,), (j,), omega_exp(d, j * (j + 1))) for j in range(d)]
    B = [
        PauliOperator(
            d, (1,), ((inv2 * k) % d,), omega_exp(d, inv2 * inv2 * (k * k + 2 * k))
        )
        for k in range(d)
    ]
    return A, B


def chsh_operator(d: int) -> BellOperator:
    """The two-qudit CHSH Bell operator."""
    require_prime(d)
    if d > MAX_CHSH_DIMENSION:
        raise UnsupportedDimensionError(
            f"CHSH scenarios stop at d={MAX_CHSH_DIMENSION}; got d={d}"
        )
    if d == 2:
        X = pauli_matrix(PauliOperator(2, (1,), (0,)))
        Y = pauli_matrix(PauliOperator(2, (1,), (1,)))
        M = np.kron(X, X) + np.kron(X, Y) + np.kron(Y, X) - np.kron(Y, Y)
        labels = {"A": ["X", "Y"], "B": ["X", "Y"]}
        return BellOperator(2, M, labels)
    w = omega(d)
    A, B = _measurement_paulis(d)
    Am = [pauli_matrix(a) for a in A]
    Bm = [pauli_matrix(b) for b in B]
    M = np.zeros((d * d, d * d), dtype=complex)
    for n in range(1, d):
        An = [np.linalg.matrix_power(m, n) for m in Am]
        Bn = [np.linalg.matrix_power(m, n) for m in Bm]
        for j in range(d):
            for k in range(d):
                M += w ** (n * j * k) * np.kron(An[j], Bn[k])
    M = M.real.astype(complex) if np.abs(M.imag).max() < 1e-12 else M
    labels = {
        "A": [f"w^{a.phase}*XZ^{a.z[0]}" for a in A],
        "B": [f"w^{b.phase}*XZ^{b.z[0]}" for b in B],
    }
    return BellOperator(d, M, labels)


def chsh_block_labels(d: int) -> dict[tuple[int, int], int]:
    """Eigenvalue label k(z1, z2) of each rank-d block Pi_{(1,1|z1,z2)[k]}.

    Derived exactly: the n=1 term of the Bell sum contributes
    omega^{jk} * (phase of A_j (x) B_k) * P_(1,1|z1,z2), and the block
    expansion d*Pi_[kappa] - I carries omega^{-kappa} on the same Pauli.
    """
    if d == 2:
        return {(z1, z2): (z1 * z2) % 2 for z1 in range(2) for z2 in range(2)}
    A, B = _measurement_paulis(d)
    inv2 = mod_inverse(2, d)
    out = {}
    for j in range(d):
        for k in range(d):
            q = A[j].tensor(B[k])
            z1, z2 = q.z
            assert q.x == (1, 1)
            out[(z1, z2)] = (-(j * k) - q.phase) % d
    assert len(out) == d * d
    return out


def _single_eigenstate(d: int, z: int, k: int) -> StabilizerState:
    """The omega^k eigenstate of P_(1|z), as an exact stabilizer state."""
    gen = PauliOperator(d, (1,), (z,), omega_exp(d, -k))
    return StabilizerState.from_generators([gen], label=f"(1|{z})[{k}]")


def chsh_scenario(d: int) -> ContextualityScenario:
    """Decompose the CHSH operator into d^3 stabilizer rank-1 projectors.

    Each rank-d block Pi_{(1,1|z1,z2)[kappa]} splits into the d products
    Pi_(1|z1)[a] (x) Pi_(1|z2)[b] with a + b = kappa.  The d^2 single-qudit
    projectors Pi_(1|z)[k] are built once from their exact states, each
    product projector is one kron of two of them, and Sigma is the sum of
    those products.  The product states the graph is built from are tensors
    of the same single-qudit states.  The dense identity
    B = d*Sigma - d^2*I is verified to 1e-9 before the scenario is returned.
    Vertex (z1*d + z2)*d + a is the product with first factor Pi_(1|z1)[a].
    """
    bell = chsh_operator(d)
    labels = chsh_block_labels(d)
    dim = d * d
    single = [[_single_eigenstate(d, z, k) for k in range(d)] for z in range(d)]
    local = [[s.projector_matrix() for s in row] for row in single]
    states: list[StabilizerState] = []
    tags: list[tuple] = []
    for (z1, z2), kappa in sorted(labels.items()):
        for a in range(d):
            b = (kappa - a) % d
            st = tensor_state(
                single[z1][a], single[z2][b], label=f"(1|{z1})[{a}]x(1|{z2})[{b}]"
            )
            states.append(st)
            tags.append((z1, z2, kappa, a, b))
    if len(set(states)) != d**3:
        raise DecompositionMismatchError("rank-1 projectors are not distinct")
    graph = orthogonality_graph(StateFamily("chsh", d, tuple(states)))
    alpha = strategy_alpha(d, labels, graph)
    projectors = [np.kron(local[z1][a], local[z2][b]) for z1, z2, _, a, b in tags]
    sigma = sum(projectors)
    recon = d * sigma - d * d * np.eye(dim)
    if np.abs(recon - bell.matrix).max() > 1e-9:
        raise DecompositionMismatchError("B != d*Sigma - d^2*I for the derived labels")
    lam = float(hermitian_eigen(sigma)[0][-1])
    return ContextualityScenario(
        name=f"chsh-d{d}",
        d=d,
        projectors=projectors,
        projector_labels=tags,
        graph=graph,
        sigma=sigma,
        nchv_bound=alpha,
        qm_value=lam,
    )


def strategy_alpha(d: int, labels: dict[tuple[int, int], int], graph: Graph) -> CliqueResult:
    """alpha of the CHSH graph as the best deterministic strategy.

    Products are orthogonal iff a factor shares its basis with a different
    eigenvalue, so an independent set is a pair of maps f, g: Z_d -> Z_d
    taking one vertex from each cell (z1, z2) with f(z1) + g(z2) = kappa;
    alpha is the most cells, the deterministic classical value (Fine, PRL 48,
    291, 1982).  The shift (f + c, g - c) fixes f(0) = 0, and for each of the
    d^(d-1) other f the best g(z2) is the most frequent kappa - f(z1) in
    column z2.  The first best f and smallest best g give the witness.
    """
    kappa = np.zeros((d, d), dtype=np.int8)
    for (z1, z2), k in labels.items():
        kappa[z1, z2] = k
    block = d ** (d - 2)  # the f with f(0) = 0 and one value of f(1)
    f = np.zeros((d, block), dtype=np.int8)  # f[z1, i]: candidate i
    f[2:] = np.indices((d,) * (d - 2), dtype=np.int8).reshape(d - 2, block)
    best, best_f, best_g = -1, None, None
    for f1 in range(d):
        f[1] = f1
        need = (kappa[:, None, :] - f[:, :, None]) % d  # [z1, i, z2]: g(z2) to score
        hits = np.stack([(need == v).sum(axis=0, dtype=np.int8) for v in range(d)])
        score = hits.max(axis=0).sum(axis=1, dtype=np.int16)
        i = int(score.argmax())
        if score[i] > best:
            best, best_f, best_g = int(score[i]), f[:, i].copy(), hits[:, i].argmax(0)
    witness = tuple(
        (z1 * d + z2) * d + int(best_f[z1])
        for z1 in range(d)
        for z2 in range(d)
        if (best_f[z1] + best_g[z2]) % d == kappa[z1, z2]
    )
    if len(witness) != best or not verify_independent_set(graph, witness):
        raise AssertionError("strategy witness failed re-verification")
    return CliqueResult(best, witness, exact=True)


def regularity_conjecture_check(scenario: ContextualityScenario) -> bool:
    """True iff the CHSH graph is (2d-1)(d-1)-regular."""
    d = scenario.d
    return scenario.graph.is_regular() == (2 * d - 1) * (d - 1)


# ---------------------------------------------------------------------------
# Peres-Mermin magic square
# ---------------------------------------------------------------------------

PM_GRID: tuple[tuple[tuple, ...], ...] = (
    # (x1,x2|z1,z2) labels for [[XY, YX, ZZ], [YZ, ZY, XX], [ZX, XZ, YY]]
    (((1, 1), (0, 1)), ((1, 1), (1, 0)), ((0, 0), (1, 1))),
    (((1, 0), (1, 1)), ((0, 1), (1, 1)), ((1, 1), (0, 0))),
    (((0, 1), (1, 0)), ((1, 0), (0, 1)), ((1, 1), (1, 1))),
)


@dataclass
class PeresMerminRecord:
    row_product_dev: float
    col_product_dev: float
    consistent_assignments: int
    projectors: list[np.ndarray]
    graph: Graph
    ent_bijection: list[int] | None

    @property
    def equivalent_to_entangled_graph(self) -> bool:
        return self.ent_bijection is not None


def _pm_operators() -> list[list[np.ndarray]]:
    return [
        [pauli_matrix(PauliOperator(2, x, z)) for (x, z) in row] for row in PM_GRID
    ]


def peres_mermin() -> PeresMerminRecord:
    """Verify the magic-square contradiction and its 24-projector graph.

    Checks: each row multiplies to +I and each column to -I; no +/-1
    assignment to the nine operators satisfies all six product constraints;
    and the 24 rank-1 projectors from the six bases give a graph isomorphic
    to the two-qubit entangled-state orthogonality graph.
    """
    ops = _pm_operators()
    eye = np.eye(4)
    row_dev = max(
        np.abs(ops[i][0] @ ops[i][1] @ ops[i][2] - eye).max() for i in range(3)
    )
    col_dev = max(
        np.abs(ops[0][j] @ ops[1][j] @ ops[2][j] + eye).max() for j in range(3)
    )
    consistent = 0
    for signs in product((1, -1), repeat=9):
        s = [signs[0:3], signs[3:6], signs[6:9]]
        rows_ok = all(s[i][0] * s[i][1] * s[i][2] == 1 for i in range(3))
        cols_ok = all(s[0][j] * s[1][j] * s[2][j] == -1 for j in range(3))
        if rows_ok and cols_ok:
            consistent += 1
    contexts = [[ops[i][j] for j in range(3)] for i in range(3)]
    contexts += [[ops[i][j] for i in range(3)] for j in range(3)]
    parities = [1, 1, 1, -1, -1, -1]
    projs: list[np.ndarray] = []
    for ctx, parity in zip(contexts, parities):
        for s1, s2 in product((1, -1), repeat=2):
            s3 = parity * s1 * s2
            p = (eye + s1 * ctx[0] + s2 * ctx[1] + s3 * ctx[2]) / 4.0
            if abs(np.trace(p).real - 1.0) > 1e-10 or np.abs(p @ p - p).max() > 1e-10:
                raise ValueError("context projector is not rank-1 idempotent")
            projs.append(p)
    # the 24 projectors must be pairwise distinct
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            if np.abs(projs[i] - projs[j]).max() < 1e-9:
                raise ValueError("duplicate projector in PM square")
    n = len(projs)
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if abs(np.trace(projs[i] @ projs[j])) < 1e-10:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    graph = Graph(n, rows)
    ent_graph = orthogonality_graph(enumerate_two_qudit(2, "entangled"))
    bij = find_isomorphism(graph, ent_graph)
    return PeresMerminRecord(
        float(row_dev), float(col_dev), consistent, projs, graph, bij
    )


# ---------------------------------------------------------------------------
# KCBS pentagon
# ---------------------------------------------------------------------------

def kcbs_vectors() -> list[np.ndarray]:
    """The symmetric pentagon representation in C^3: consecutive vectors are
    orthogonal and the top eigenvector of Sigma reaches sqrt(5)."""
    c = math.cos(math.pi / 5)
    cos2 = c / (1 + c)
    theta = math.acos(math.sqrt(cos2))
    out = []
    for i in range(5):
        phi = 4 * math.pi * i / 5
        v = np.array(
            [math.cos(theta), math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi)]
        )
        out.append(v / np.linalg.norm(v))
    return out


def kcbs_scenario() -> ContextualityScenario:
    vecs = kcbs_vectors()
    projs = [np.outer(v, v.conj()) for v in vecs]
    n = 5
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if abs(np.trace(projs[i] @ projs[j])) < 1e-10:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    graph = Graph(n, rows)
    sigma = sum(projs)
    lam = float(hermitian_eigen(sigma)[0][-1])
    alpha = independence_number(graph)
    return ContextualityScenario(
        name="kcbs",
        d=3,
        projectors=projs,
        projector_labels=[(i,) for i in range(5)],
        graph=graph,
        sigma=sigma,
        nchv_bound=alpha,
        qm_value=lam,
    )


# ---------------------------------------------------------------------------
# alternate six-projector CHSH realization
# ---------------------------------------------------------------------------

def _pauli_expansion(state: StabilizerState) -> dict[tuple, int]:
    """Signed Pauli expansion of a two-qubit stabilizer projector: the
    non-identity group elements with coefficient +1 or -1 (times 1/4)."""
    out = {}
    for (x, z), ph in state.group().items():
        if all(v == 0 for v in x) and all(v == 0 for v in z):
            continue
        if ph % 2 != 0:
            raise ValueError("two-qubit stabilizer phases must be +/-1")
        out[(x, z)] = 1 if ph == 0 else -1
    return out


def iter_alternate_chsh_solutions():
    """Yield every 6-subset of the 60 two-qubit stabilizer states whose
    projector sum satisfies 4*Sigma - 6*I = B, by exact signed-Pauli
    bookkeeping (there are 80, in five graph-isomorphism shapes)."""
    target = {
        ((1, 1), (0, 0)): 1,   # X(x)X
        ((1, 1), (0, 1)): 1,   # X(x)Y
        ((1, 1), (1, 0)): 1,   # Y(x)X
        ((1, 1), (1, 1)): -1,  # Y(x)Y
    }
    family = enumerate_two_qudit(2, "total")
    expansions = [_pauli_expansion(s) for s in family.states]
    keys = sorted({k for e in expansions for k in e} | set(target))
    vecs = [tuple(e.get(k, 0) for k in keys) for e in expansions]
    goal = tuple(target.get(k, 0) for k in keys)
    nstates = len(vecs)
    chosen: list[int] = []

    def dfs(start: int, partial: tuple[int, ...], depth: int):
        if depth == 6:
            if partial == goal:
                yield [family.states[i] for i in chosen]
            return
        remaining = 6 - depth
        for i in range(start, nstates - (remaining - 1)):
            new = tuple(p + v for p, v in zip(partial, vecs[i]))
            # each further state moves one coordinate by at most 1 and the
            # whole vector by at most 3 in L1
            l1 = sum(abs(gc - nc) for gc, nc in zip(goal, new))
            if l1 <= 3 * (remaining - 1) and all(
                abs(gc - nc) <= remaining - 1 for gc, nc in zip(goal, new)
            ):
                chosen.append(i)
                yield from dfs(i + 1, new, depth + 1)
                chosen.pop()

    yield from dfs(0, (0,) * len(keys), 0)


def find_alternate_chsh_projectors() -> list[StabilizerState]:
    """First solution (in canonical state order) whose orthogonality graph is
    the complement of the 5-pan graph."""
    pan_comp = Graph.pan(5).complement()
    for states in iter_alternate_chsh_solutions():
        g = orthogonality_graph(StateFamily("total", 2, tuple(states)))
        if find_isomorphism(g, pan_comp) is not None:
            return states
    raise SearchFailedError(
        "no 6-projector set with 4*Sigma - 6I = B realizes the 5-pan complement"
    )


@dataclass
class AlternateChshRecord:
    scenario: ContextualityScenario
    pan_complement_bijection: list[int] | None
    identity_dev: float


def alternate_chsh_scenario() -> AlternateChshRecord:
    """The six-projector CHSH realization whose graph is the 5-pan complement."""
    states = find_alternate_chsh_projectors()
    bell = chsh_operator(2)
    sigma = sum(s.projector_matrix() for s in states)
    dev = float(np.abs(4 * sigma - 6 * np.eye(4) - bell.matrix).max())
    if dev > 1e-9:
        raise DecompositionMismatchError("4*Sigma - 6I != B after search")
    graph = orthogonality_graph(StateFamily("total", 2, tuple(states)))
    pan_comp = Graph.pan(5).complement()
    bij = find_isomorphism(graph, pan_comp)
    alpha = independence_number(graph)
    lam = float(hermitian_eigen(sigma)[0][-1])
    scenario = ContextualityScenario(
        name="chsh-6proj",
        d=2,
        projectors=[s.projector_matrix() for s in states],
        projector_labels=[(s.label,) for s in states],
        graph=graph,
        sigma=sigma,
        nchv_bound=alpha,
        qm_value=lam,
    )
    return AlternateChshRecord(scenario, bij, dev)
