"""Exact enumeration of single- and two-qudit stabilizer states.

A state is represented by n phased Pauli generators in a canonical form:
the (x|z) rows are in reduced row echelon form over Z_d with fixed pivot
order, and each generator carries the unique phase that makes it stabilize
the state.  Equality, hashing and the orthogonality predicate are exact
integer computations; dense projectors are built lazily.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .clifford import CliffordElement, conjugate_pauli, enumerate_clifford
from .errors import BudgetExceededError, ShapeMismatchError
from .pauli import (
    PauliOperator,
    identity_pauli,
    multiply_arrays,
    omega_exp,
    symplectic_commutes,
)
from .zmod import mod_inverse, require_prime

# Exhaustive enumeration stays comfortable on a desk machine up to these caps.
MAX_PAIR_DIM = 7
MAX_TOTAL_DIM = 5


def _canonicalize(gens: list[PauliOperator]) -> tuple[PauliOperator, ...]:
    """Reduced row echelon form over Z_d on (x|z) rows, phases carried along."""
    d = gens[0].d
    n = gens[0].n
    rows = list(gens)
    vec = lambda g: list(g.x) + list(g.z)
    pivot_row = 0
    for col in range(2 * n):
        pick = None
        for r in range(pivot_row, len(rows)):
            if vec(rows[r])[col] % d != 0:
                pick = r
                break
        if pick is None:
            continue
        rows[pivot_row], rows[pick] = rows[pick], rows[pivot_row]
        lead = vec(rows[pivot_row])[col] % d
        if lead != 1:
            rows[pivot_row] = rows[pivot_row] ** mod_inverse(lead, d)
        for r in range(len(rows)):
            if r == pivot_row:
                continue
            coef = vec(rows[r])[col] % d
            if coef:
                rows[r] = rows[r] * rows[pivot_row] ** ((-coef) % d)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    if pivot_row < len(rows):
        raise ValueError("generators are not independent")
    return tuple(rows)


@dataclass(frozen=True)
class StabilizerState:
    """A rank-1 stabilizer projector, held exactly by canonical generators."""

    d: int
    n: int
    generators: tuple[PauliOperator, ...]
    label: str = ""
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def from_generators(
        cls, gens: list[PauliOperator], label: str = ""
    ) -> "StabilizerState":
        if not gens:
            raise ValueError("need at least one generator")
        d, n = gens[0].d, gens[0].n
        if len(gens) != n:
            raise ValueError(f"a rank-1 state on {n} qudits needs {n} generators")
        for i, g in enumerate(gens):
            for h in gens[i + 1 :]:
                if not symplectic_commutes(g, h):
                    raise ValueError("generators do not commute")
        return cls(d, n, _canonicalize(gens), label)

    @property
    def key(self) -> tuple:
        return tuple((g.x, g.z, g.phase) for g in self.generators)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StabilizerState) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def group(self) -> dict[tuple, int]:
        """Full stabilizer group: unsigned (x|z) key -> phase exponent."""
        if "group" not in self._cache:
            elems = [identity_pauli(self.d, self.n)]
            for g in self.generators:
                elems = [e * g**j for j in range(self.d) for e in elems]
            table = {p.key: p.phase for p in elems}
            if len(table) != self.d**self.n:
                raise ValueError("generated group has wrong order")
            self._cache["group"] = table
            self._cache["keys"] = frozenset(table)
            self._cache["items"] = frozenset(table.items())
        return self._cache["group"]

    def group_keys(self) -> frozenset:
        self.group()
        return self._cache["keys"]

    def group_items(self) -> frozenset:
        self.group()
        return self._cache["items"]

    def projector_matrix(self) -> np.ndarray:
        """Dense rank-1 projector (1/d^n) sum over the stabilizer group."""
        if "proj" not in self._cache:
            d, n = self.d, self.n
            dim = d**n
            acc = np.zeros((dim, dim), dtype=complex)
            for (x, z), ph in self.group().items():
                acc += PauliOperator(d, x, z, ph).matrix()
            self._cache["proj"] = acc / dim
        return self._cache["proj"]

    def to_record(self, kind: str = "") -> dict:
        return {
            "kind": kind,
            "d": self.d,
            "label": self.label,
            "generators": [
                {"x": list(g.x), "z": list(g.z), "phase": g.phase}
                for g in self.generators
            ],
        }


def tensor_state(a: StabilizerState, b: StabilizerState, label: str = "") -> StabilizerState:
    if a.d != b.d:
        raise ShapeMismatchError("tensor factors have different dimension")
    d = a.d
    pad_b = identity_pauli(d, b.n)
    pad_a = identity_pauli(d, a.n)
    gens = [g.tensor(pad_b) for g in a.generators]
    gens += [pad_a.tensor(g) for g in b.generators]
    return StabilizerState.from_generators(gens, label or f"{a.label}*{b.label}")


def is_orthogonal(s: StabilizerState, t: StabilizerState) -> bool:
    """Exact orthogonality: Tr(Pi_s Pi_t) = 0 iff the stabilizer groups share
    an unsigned Pauli carried with different phase exponents."""
    if s.d != t.d or s.n != t.n:
        raise ShapeMismatchError("states live on different spaces")
    shared = s.group_keys() & t.group_keys()
    agree = s.group_items() & t.group_items()
    return len(agree) != len(shared)


def group_tables(states) -> tuple[np.ndarray, np.ndarray]:
    """Stabilizer groups of many states at once: (key_idx, phase), two (N, d^n)
    integer arrays.

    Row i lists the group of states[i] in the element order of
    ``StabilizerState.group()``.  key_idx[i, k] is the unsigned (x|z) key read
    as the base-d number with digits x_1..x_n z_1..z_n, so it sorts like the
    key tuple; phase[i, k] is the exponent ``group()`` maps that key to.
    """
    d, n = states[0].d, states[0].n
    if any(s.d != d or s.n != n for s in states):
        raise ShapeMismatchError("states live on different spaces")
    gx = np.array([[g.x for g in s.generators] for s in states], dtype=np.int64)
    gz = np.array([[g.z for g in s.generators] for s in states], dtype=np.int64)
    gp = np.array([[g.phase for g in s.generators] for s in states], dtype=np.int64)
    count = len(states)
    ident = (np.zeros((count, 1, n), np.int64), np.zeros((count, 1, n), np.int64),
             np.zeros((count, 1), np.int64))
    ex, ez, ep = ident
    for k in range(n):
        gen = (gx[:, None, k], gz[:, None, k], gp[:, None, k])
        # g**j for j = 0..d-1 by repeated right multiplication, as __pow__ does
        powers = [ident]
        for _ in range(d - 1):
            powers.append(multiply_arrays(d, powers[-1], gen))
        px, pz, pp = (np.concatenate(part, axis=1) for part in zip(*powers))
        # [e * g**j for j in range(d) for e in elems]: element j*m + e
        ex, ez, ep = multiply_arrays(
            d, (ex[:, None], ez[:, None], ep[:, None]),
            (px[:, :, None], pz[:, :, None], pp[:, :, None]),
        )
        ex = ex.reshape(count, -1, n)
        ez = ez.reshape(count, -1, n)
        ep = ep.reshape(count, -1)
    key_idx = np.concatenate([ex, ez], axis=2) @ (d ** np.arange(2 * n - 1, -1, -1))
    ordered = np.sort(key_idx, axis=1)
    if (ordered[:, 1:] == ordered[:, :-1]).any():
        raise ValueError("generated group has wrong order")
    return key_idx, ep


def mub_operators(d: int) -> list[PauliOperator]:
    """The d+1 single-qudit MUB operators: Z, X, XZ, ..., XZ^{d-1}."""
    ops = [PauliOperator(d, (0,), (1,))]
    ops += [PauliOperator(d, (1,), (z,)) for z in range(d)]
    return ops


@dataclass(frozen=True)
class StateFamily:
    """An enumerated family of stabilizer states in deterministic order."""

    kind: str
    d: int
    states: tuple[StabilizerState, ...]

    def __len__(self) -> int:
        return len(self.states)

    def to_json(self) -> str:
        return json.dumps(
            [s.to_record(self.kind) for s in self.states], sort_keys=True
        )


def _sorted(states: list[StabilizerState]) -> tuple[StabilizerState, ...]:
    return tuple(sorted(states, key=lambda s: s.key))


def enumerate_single(d: int) -> StateFamily:
    """All d(d+1) single-qudit stabilizer states: d+1 MUB eigenbases."""
    require_prime(d)
    states = []
    for a, op in enumerate(mub_operators(d)):
        for k in range(d):
            gen = PauliOperator(d, op.x, op.z, omega_exp(d, -k))
            states.append(StabilizerState.from_generators([gen], label=f"b{a}v{k}"))
    assert len(set(states)) == d * (d + 1)
    return StateFamily("single", d, _sorted(states))


def jamiolkowski_stabilizer(c: CliffordElement) -> StabilizerState:
    """Exact stabilizer form of (I (x) C)|Phi>.

    |Phi> is fixed by X(x)X and Z(x)Z^{-1}; conjugating the second factor by C
    gives two phased generators of the image state.
    """
    d = c.d
    gens = []
    for xz in (((1, 1), (0, 0)), ((0, 0), (1, d - 1))):
        x, z = xz
        left = PauliOperator(d, (x[0],), (z[0],))
        right = PauliOperator(d, (x[1],), (z[1],))
        img = conjugate_pauli(c, right)
        gens.append(left.tensor(img))
    label = f"J{c.f}{c.u}"
    return StabilizerState.from_generators(gens, label=label)


def enumerate_two_qudit(
    d: int, kind: str, max_pair_dim: int = MAX_PAIR_DIM, max_total_dim: int = MAX_TOTAL_DIM
) -> StateFamily:
    """Two-qudit families: separable tensor pairs, entangled Jamiolkowski
    isomorphs of the Clifford group, or their union.

    Each (d, kind) is enumerated once per process; the caps are checked on
    every call, before the cached family is returned."""
    require_prime(d)
    if kind not in ("separable", "entangled", "total"):
        raise ValueError(f"unknown family kind {kind!r}")
    cap = max_total_dim if kind == "total" else max_pair_dim
    if d > cap:
        raise BudgetExceededError(f"family {kind!r} capped at d <= {cap}, got {d}")
    return _enumerate_two_qudit(d, kind)


@lru_cache(maxsize=None)
def _enumerate_two_qudit(d: int, kind: str) -> StateFamily:
    if kind == "separable":
        single = enumerate_single(d).states
        states = [tensor_state(a, b) for a in single for b in single]
        expect = (d * (d + 1)) ** 2
    elif kind == "entangled":
        states = [jamiolkowski_stabilizer(c) for c in enumerate_clifford(d)]
        expect = d**3 * (d * d - 1)
    else:
        sep = _enumerate_two_qudit(d, "separable")
        ent = _enumerate_two_qudit(d, "entangled")
        overlap = set(sep.states) & set(ent.states)
        if overlap:
            raise ValueError("separable and entangled families overlap")
        states = list(sep.states) + list(ent.states)
        expect = d * d * (d * d + 1) * (d + 1)
    dedup = set(states)
    if len(dedup) != expect or len(states) != expect:
        raise ValueError(
            f"{kind} family at d={d}: enumerated {len(dedup)} distinct "
            f"states, expected {expect}"
        )
    return StateFamily(kind, d, _sorted(states))


def family_counts(d: int) -> dict[str, int]:
    """Closed-form family sizes used for cross-checks and the CLI."""
    return {
        "single": d * (d + 1),
        "separable": (d * (d + 1)) ** 2,
        "entangled": d**3 * (d * d - 1),
        "total": d * d * (d * d + 1) * (d + 1),
    }
