"""Phased symplectic Pauli operators on n qudits and their dense eigenprojectors.

A Pauli operator is stored as (x|z) vectors over Z_d together with a phase
exponent.  The canonical (phase-0) operator is

    P_(x|z) = i^{x.z} X^x Z^z     for d = 2     (so P_(1|1) is the usual Y)
    P_(x|z) =         X^x Z^z     for odd d

and the stored phase counts powers of i (mod 4) for qubits, powers of
omega = exp(2*pi*i/d) (mod d) for odd d.  Phase bookkeeping stays exact
integer arithmetic; dense matrices are built only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionOverflowError,
    IdentityFactorError,
    IdentityPauliError,
    NotHermitianError,
    ShapeMismatchError,
)

# Largest dense matrix side the artifact ever needs is 49 (d=7, two qudits);
# the cap only guards against accidental huge allocations.
MAX_DENSE_DIM = 256


def omega(d: int) -> complex:
    return complex(np.exp(2j * math.pi / d))


def phase_order(d: int) -> int:
    """Order of the tracked phase group: i^k for qubits, omega^k otherwise."""
    return 4 if d == 2 else d


def omega_exp(d: int, k: int) -> int:
    """Phase exponent representing omega^k in the tracked phase group."""
    return (2 * k) % 4 if d == 2 else k % d


@dataclass(frozen=True)
class PauliOperator:
    """An n-qudit Pauli operator with an exact phase exponent."""

    d: int
    x: tuple[int, ...]
    z: tuple[int, ...]
    phase: int = 0

    def __post_init__(self) -> None:
        d = self.d
        object.__setattr__(self, "x", tuple(v % d for v in self.x))
        object.__setattr__(self, "z", tuple(v % d for v in self.z))
        object.__setattr__(self, "phase", self.phase % phase_order(d))
        if len(self.x) != len(self.z) or not self.x:
            raise ShapeMismatchError("x and z must be equal-length, nonempty")

    @property
    def n(self) -> int:
        return len(self.x)

    def is_identity(self) -> bool:
        """True when the unsigned part is the identity (phase ignored)."""
        return all(v == 0 for v in self.x) and all(v == 0 for v in self.z)

    @property
    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Unsigned label (x|z), used for grouping and hashing."""
        return (self.x, self.z)

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.d != other.d or self.n != other.n:
            raise ShapeMismatchError("operands act on different spaces")
        d = self.d
        xc = tuple((a + b) % d for a, b in zip(self.x, other.x))
        zc = tuple((a + b) % d for a, b in zip(self.z, other.z))
        cross = sum(a * b for a, b in zip(self.z, other.x))
        if d == 2:
            ph = (
                self.phase
                + other.phase
                + _dot(self.x, self.z)
                + _dot(other.x, other.z)
                + 2 * cross
                - _dot(xc, zc)
            ) % 4
        else:
            ph = (self.phase + other.phase + cross) % d
        return PauliOperator(d, xc, zc, ph)

    def __pow__(self, j: int) -> "PauliOperator":
        j %= self.d if self.d != 2 else 2 * self.d  # phase can have period 2d for d=2
        out = identity_pauli(self.d, self.n)
        for _ in range(j):
            out = out * self
        return out

    def inverse(self) -> "PauliOperator":
        d = self.d
        unsigned = PauliOperator(d, tuple(-v for v in self.x), tuple(-v for v in self.z))
        residue = (self * unsigned).phase
        return PauliOperator(d, unsigned.x, unsigned.z, -residue)

    def scaled(self, k: int) -> "PauliOperator":
        """Multiply by omega^k (exactly, via the tracked exponent)."""
        return PauliOperator(self.d, self.x, self.z, self.phase + omega_exp(self.d, k))

    def tensor(self, other: "PauliOperator") -> "PauliOperator":
        if self.d != other.d:
            raise ShapeMismatchError("tensor factors have different dimension")
        return PauliOperator(
            self.d, self.x + other.x, self.z + other.z, self.phase + other.phase
        )

    def phase_value(self) -> complex:
        return (1j if self.d == 2 else omega(self.d)) ** self.phase

    def matrix(self) -> np.ndarray:
        return pauli_matrix(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"P{self.x}|{self.z}[ph{self.phase}]"


def _dot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(p * q for p, q in zip(a, b))


def multiply_arrays(d: int, a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``PauliOperator.__mul__`` over broadcast integer arrays.

    Each operand is (x, z, phase): x and z of shape (..., n) reduced mod d,
    phase of shape (...).  The phase rule is the one of ``__mul__``, the
    qubit mod-4 rule included.
    """
    ax, az, ap = a
    bx, bz, bp = b
    xc = (ax + bx) % d
    zc = (az + bz) % d
    cross = (az * bx).sum(-1)
    if d == 2:
        ph = (ap + bp + (ax * az).sum(-1) + (bx * bz).sum(-1) + 2 * cross
              - (xc * zc).sum(-1)) % 4
    else:
        ph = (ap + bp + cross) % d
    return xc, zc, ph


def identity_pauli(d: int, n: int) -> PauliOperator:
    return PauliOperator(d, (0,) * n, (0,) * n, 0)


@lru_cache(maxsize=None)
def _xz_matrices(d: int) -> tuple[np.ndarray, np.ndarray]:
    X = np.zeros((d, d), dtype=complex)
    for j in range(d):
        X[(j + 1) % d, j] = 1.0
    Z = np.diag([omega(d) ** j for j in range(d)])
    return X, Z


@lru_cache(maxsize=None)
def _single_qudit_matrix(d: int, x: int, z: int) -> np.ndarray:
    X, Z = _xz_matrices(d)
    m = np.linalg.matrix_power(X, x % d) @ np.linalg.matrix_power(Z, z % d)
    m.flags.writeable = False
    return m


def pauli_matrix(p: PauliOperator, max_dim: int = MAX_DENSE_DIM) -> np.ndarray:
    """Dense unitary for a phased Pauli, in the module's phase convention."""
    dim = p.d**p.n
    if dim > max_dim:
        raise DimensionOverflowError(f"matrix side {dim} exceeds cap {max_dim}")
    m = np.array([[1.0 + 0j]])
    for x, z in zip(p.x, p.z):
        m = np.kron(m, _single_qudit_matrix(p.d, x, z))
    if p.d == 2:
        m = (1j) ** _dot(p.x, p.z) * m
    return p.phase_value() * m


def symplectic_commutes(p: PauliOperator, q: PauliOperator) -> bool:
    """True iff sum_i (x_i z'_i - x'_i z_i) = 0 mod d."""
    if p.d != q.d or p.n != q.n:
        raise ShapeMismatchError("operands act on different spaces")
    s = sum(px * qz - qx * pz for px, pz, qx, qz in zip(p.x, p.z, q.x, q.z))
    return s % p.d == 0


@dataclass(frozen=True)
class Projector:
    """A Hermitian idempotent with its eigenvalue label (x|z)[k]."""

    matrix: np.ndarray
    rank: int
    label: tuple

    def __post_init__(self) -> None:
        m = self.matrix
        if np.abs(m @ m - m).max() > 1e-10:
            raise ValueError("matrix is not idempotent")
        if np.abs(m - m.conj().T).max() > 1e-10:
            raise NotHermitianError("projector matrix must be Hermitian")
        if abs(m.trace().real - self.rank) > 1e-10:
            raise ValueError(f"trace {m.trace():.3g} does not match rank {self.rank}")


def eigenprojector(p: PauliOperator, k: int) -> Projector:
    """Projector onto the omega^k eigenspace: (1/d) sum_j omega^{-jk} P^j."""
    if p.is_identity():
        raise IdentityPauliError("identity has no nontrivial eigenprojectors")
    d = p.d
    w = omega(d)
    M = pauli_matrix(p)
    out = np.zeros_like(M)
    acc = np.eye(M.shape[0], dtype=complex)
    for j in range(d):
        out += w ** (-j * k) * acc
        acc = acc @ M
    out /= d
    return Projector(out, rank=d ** (p.n - 1), label=(p.x, p.z, k % d))


def rank1_decompose(p: PauliOperator, k: int) -> list[Projector]:
    """Split a two-qudit rank-d eigenprojector into d rank-1 tensor projectors.

    Requires a product-form label with both single-qudit factors non-identity;
    the d terms are Pi_(x1|z1)[a] (x) Pi_(x2|z2)[b] over a + b = k mod d.
    """
    if p.n != 2:
        raise ShapeMismatchError("rank-1 decomposition is defined for two qudits")
    d = p.d
    f1 = PauliOperator(d, (p.x[0],), (p.z[0],))
    f2 = PauliOperator(d, (p.x[1],), (p.z[1],))
    if f1.is_identity() or f2.is_identity():
        raise IdentityFactorError("both tensor factors must be non-identity")
    out = []
    for a in range(d):
        b = (k - a) % d
        left = eigenprojector(f1, a)
        right = eigenprojector(f2, b)
        out.append(
            Projector(
                np.kron(left.matrix, right.matrix),
                rank=1,
                label=(p.x, p.z, k % d, a, b),
            )
        )
    return out


def hermitian_eigen(m: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectrum and orthonormal eigenvectors of a Hermitian matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatchError("expected a square matrix")
    if np.abs(m - m.conj().T).max() > tol:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    return w, v
