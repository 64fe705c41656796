"""Undirected simple graphs with bit-set adjacency rows.

Adjacency is one Python integer per vertex (bit j of rows[j] set iff i ~ j),
which gives the clique-search kernels fast row intersection on graphs up to
a few thousand vertices.  Constructors cover orthogonality graphs, Cayley
graphs, the OR product, complements and disjoint unions, plus DIMACS and
JSON I/O and a small exact isomorphism search.
"""

from __future__ import annotations

import json

import numpy as np

from .clifford import CliffordElement
from .errors import BadConnectionSetError, DimacsFormatError, ShapeMismatchError
from .pauli import phase_order
from .states import StateFamily, group_tables

# Rows of W W^T computed per block, so a block of float32 entries stays near 8 MB.
_GRAM_BLOCK_ENTRIES = 1 << 21


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "rows", "labels", "_complement")

    def __init__(self, n: int, rows: list[int], labels: tuple[str, ...] | None = None):
        if len(rows) != n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << n) - 1
        for i, r in enumerate(rows):
            if r & (1 << i):
                raise ValueError(f"self-loop at vertex {i}")
            if r & ~full:
                raise ValueError(f"row {i} addresses vertices outside range")
        for i in range(n):
            for j in _bits(rows[i]):
                if not rows[j] >> i & 1:
                    raise ValueError("adjacency is not symmetric")
        self.n = n
        self.rows = tuple(rows)
        self.labels = labels
        self._complement: Graph | None = None

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_edges(
        cls, n: int, edges, labels: tuple[str, ...] | None = None
    ) -> "Graph":
        rows = [0] * n
        for i, j in edges:
            if i == j:
                raise ValueError("self-loops are not allowed")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(n, rows, labels)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, [0] * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, [full & ~(1 << i) for i in range(n)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def pan(cls, n: int) -> "Graph":
        """An n-cycle plus a pendant vertex attached to vertex 0."""
        edges = [(i, (i + 1) % n) for i in range(n)] + [(0, n)]
        return cls.from_edges(n + 1, edges)

    # -- queries -----------------------------------------------------------
    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def degrees(self) -> list[int]:
        return [self.degree(i) for i in range(self.n)]

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.n):
            r = self.rows[i] >> (i + 1) << (i + 1)
            out.extend((i, j) for j in _bits(r))
        return out

    def is_regular(self) -> int | None:
        degs = set(self.degrees())
        return degs.pop() if len(degs) == 1 else None

    def complement(self) -> "Graph":
        """The complement, built on the first call and shared by later ones."""
        if self._complement is None:
            full = (1 << self.n) - 1
            rows = [full & ~self.rows[i] & ~(1 << i) for i in range(self.n)]
            self._complement = Graph(self.n, rows, self.labels)
        return self._complement

    def subgraph(self, vertices: list[int]) -> "Graph":
        pos = {v: i for i, v in enumerate(vertices)}
        rows = [0] * len(vertices)
        for v in vertices:
            for w in _bits(self.rows[v]):
                if w in pos:
                    rows[pos[v]] |= 1 << pos[w]
        labels = tuple(self.labels[v] for v in vertices) if self.labels else None
        return Graph(len(vertices), rows, labels)

    def relabeled(self, perm: list[int]) -> "Graph":
        """Graph with vertex i renamed perm[i]."""
        rows = [0] * self.n
        for i in range(self.n):
            for j in _bits(self.rows[i]):
                rows[perm[i]] |= 1 << perm[j]
        return Graph(self.n, rows)

    def edge_set(self) -> frozenset:
        return frozenset((min(i, j), max(i, j)) for i, j in self.edges())

    # -- I/O ----------------------------------------------------------------
    def to_dimacs(self) -> str:
        lines = [f"p edge {self.n} {self.edge_count()}"]
        lines += [f"e {i + 1} {j + 1}" for i, j in self.edges()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text: str) -> "Graph":
        n = None
        declared = 0
        edges = []
        for lineno, line in enumerate(text.splitlines(), 1):
            parts = line.split()
            if not parts or parts[0] == "c":
                continue
            if parts[0] == "p":
                if n is not None:
                    raise DimacsFormatError(f"line {lineno}: second problem line")
                n, declared = _dimacs_pair(parts[2:], lineno)
                if n < 0 or declared < 0:
                    raise DimacsFormatError(f"line {lineno}: negative size")
            elif parts[0] == "e":
                if n is None:
                    raise DimacsFormatError(f"line {lineno}: edge before the problem line")
                i, j = _dimacs_pair(parts[1:], lineno)
                if not (1 <= i <= n and 1 <= j <= n) or i == j:
                    raise DimacsFormatError(
                        f"line {lineno}: edge {i} {j} is not two distinct vertices in 1..{n}"
                    )
                edges.append((i - 1, j - 1))
        if n is None:
            raise DimacsFormatError("missing DIMACS problem line")
        if len(edges) != declared:
            raise DimacsFormatError(
                f"problem line declares {declared} edges, found {len(edges)}"
            )
        return cls.from_edges(n, edges)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "edges": [[i, j] for i, j in self.edges()],
                "labels": list(self.labels) if self.labels else None,
            },
            sort_keys=True,
        )


def _dimacs_pair(fields: list[str], lineno: int) -> tuple[int, int]:
    try:
        a, b = map(int, fields)
    except ValueError as exc:
        raise DimacsFormatError(f"line {lineno}: expected two integers") from exc
    return a, b


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def disjoint_union(m: int, g: Graph) -> Graph:
    """Disjoint union of m copies of g (so disjoint_union(m, complete(n)) = mK_n)."""
    n = g.n
    rows = []
    for copy in range(m):
        off = copy * n
        rows.extend(r << off for r in g.rows)
    return Graph(m * n, rows)


def or_product(g: Graph, h: Graph) -> Graph:
    """OR product: (a,b) ~ (a',b') iff a ~ a' or b ~ b'; vertex (a,b) -> a*h.n + b."""
    hn = h.n
    full_h = (1 << hn) - 1
    col = 0
    for a in range(g.n):
        col |= 1 << (a * hn)
    rows = []
    for a in range(g.n):
        row_left = 0
        for a2 in _bits(g.rows[a]):
            row_left |= full_h << (a2 * hn)
        for b in range(hn):
            row = row_left
            for b2 in _bits(h.rows[b]):
                row |= col << b2
            row &= ~(1 << (a * hn + b))
            rows.append(row)
    return Graph(g.n * hn, rows)


def orthogonality_graph(family: StateFamily) -> Graph:
    """Vertex per state (in family order), edge iff exactly orthogonal.

    For stabilizer states with groups S and T, d^(2n) Tr(Pi_s Pi_t) is the
    sum over the shared keys S n T of omega^(phase_s - phase_t).  The phase
    ratio is a character of the subgroup S n T, so the sum is 0 (orthogonal)
    or the integer |S n T| >= 1 (Aaronson-Gottesman, PRA 70, 052328, 2004;
    Gross, JMP 47, 122107, 2006).  Each state becomes the real row
    [cos theta | sin theta] over the d^(2n) keys, theta = 2 pi phase /
    phase_order(d) and 0 on absent keys, so the Gram entry of two rows is
    that sum.  An entry is an edge iff it is < 1/2.  A row has at most
    d^n <= 49 nonzeros, so the float32 rounding error of an entry is below
    1e-3, far inside the gap between 0 and 1.
    """
    states = family.states
    n = len(states)
    d = states[0].d
    keys = d ** (2 * states[0].n)
    key_idx, phase = group_tables(states)
    theta = (2 * np.pi / phase_order(d)) * phase
    w = np.zeros((n, 2 * keys), dtype=np.float32)
    at = np.arange(n)[:, None]
    w[at, key_idx] = np.cos(theta)
    w[at, keys + key_idx] = np.sin(theta)
    adj = np.empty((n, n), dtype=bool)
    step = max(1, _GRAM_BLOCK_ENTRIES // n)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        block = adj[lo:hi]
        np.less(w[lo:hi] @ w.T, 0.5, out=block)
        assert not block[np.arange(hi - lo), np.arange(lo, hi)].any()
    assert (adj == adj.T).all()
    packed = np.packbits(adj, axis=1, bitorder="little")
    rows = [int.from_bytes(r.tobytes(), "little") for r in packed]
    return Graph(n, rows, tuple(s.label for s in states))


def cayley_graph(elements: list[CliffordElement], connection) -> Graph:
    """Cayley graph on the listed group elements: g ~ h iff g^{-1} h in T."""
    tkeys = {t.key for t in connection}
    tlist = list(connection)
    for t in tlist:
        if t.is_identity():
            raise BadConnectionSetError("connection set contains the identity")
        if t.inverse().key not in tkeys:
            raise BadConnectionSetError("connection set is not inverse-closed")
    index = {g.key: i for i, g in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("duplicate group elements")
    rows = [0] * len(elements)
    for i, g in enumerate(elements):
        for t in tlist:
            h = g.compose(t)
            j = index.get(h.key)
            if j is None:
                raise ShapeMismatchError("element list is not closed under T")
            if j != i:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    labels = tuple(f"C{g.f}{g.u}" for g in elements)
    return Graph(len(elements), rows, labels)


# -- exact isomorphism on small graphs ---------------------------------------

def _refine_invariants(g: Graph, rounds: int = 3) -> list[tuple]:
    inv = [(g.degree(i),) for i in range(g.n)]
    for _ in range(rounds):
        inv = [
            inv[i] + (tuple(sorted(inv[j] for j in _bits(g.rows[i]))),)
            for i in range(g.n)
        ]
    return inv


def find_isomorphism(g: Graph, h: Graph, max_n: int = 64) -> list[int] | None:
    """A bijection mapping g-vertices to h-vertices preserving adjacency, or None.

    Vertex-invariant refinement followed by backtracking; intended for the
    desk-scale identifications (pentagons, pan complements, the 24-vertex
    entangled graph), not as a general-purpose solver.
    """
    if g.n != h.n or g.edge_count() != h.edge_count():
        return None
    if g.n > max_n:
        raise ValueError(f"isomorphism search capped at {max_n} vertices")
    gi = _refine_invariants(g)
    hi = _refine_invariants(h)
    if sorted(gi) != sorted(hi):
        return None
    candidates = [
        [v for v in range(h.n) if hi[v] == gi[u]] for u in range(g.n)
    ]
    order = sorted(range(g.n), key=lambda u: len(candidates[u]))
    mapping = [-1] * g.n
    used = [False] * h.n

    def extend(idx: int) -> bool:
        if idx == g.n:
            return True
        u = order[idx]
        for v in candidates[u]:
            if used[v]:
                continue
            ok = True
            for w in range(g.n):
                if mapping[w] >= 0:
                    if g.has_edge(u, w) != h.has_edge(v, mapping[w]):
                        ok = False
                        break
            if ok:
                mapping[u] = v
                used[v] = True
                if extend(idx + 1):
                    return True
                mapping[u] = -1
                used[v] = False
        return False

    if extend(0):
        return mapping
    return None


def verify_bijection(g: Graph, h: Graph, mapping: list[int]) -> bool:
    if sorted(mapping) != list(range(g.n)):
        return False
    return all(
        g.has_edge(i, j) == h.has_edge(mapping[i], mapping[j])
        for i in range(g.n)
        for j in range(i + 1, g.n)
    )


def automorphism_count(g: Graph, max_n: int = 64) -> int:
    """Order of the automorphism group, by exhaustive backtracking (small n)."""
    if g.n > max_n:
        raise ValueError(f"automorphism count capped at {max_n} vertices")
    gi = _refine_invariants(g)
    candidates = [[v for v in range(g.n) if gi[v] == gi[u]] for u in range(g.n)]
    order = sorted(range(g.n), key=lambda u: len(candidates[u]))
    mapping = [-1] * g.n
    used = [False] * g.n
    count = 0

    def extend(idx: int) -> None:
        nonlocal count
        if idx == g.n:
            count += 1
            return
        u = order[idx]
        for v in candidates[u]:
            if used[v]:
                continue
            ok = True
            for w in range(g.n):
                if mapping[w] >= 0 and g.has_edge(u, w) != g.has_edge(v, mapping[w]):
                    ok = False
                    break
            if ok:
                mapping[u] = v
                used[v] = True
                extend(idx + 1)
                mapping[u] = -1
                used[v] = False

    extend(0)
    return count
