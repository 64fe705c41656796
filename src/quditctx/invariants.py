"""Exact and certified solvers for the contextuality graph invariants.

Covers the full chain alpha <= theta <= alpha* <= chibar plus omega, chi and
induced odd-cycle detection:

* max clique / independence number: branch and bound with greedy-coloring
  upper bounds on bit-set candidate rows, budget-degradable to a lower bound;
* chromatic number: exact search up to 64 vertices, plus the normal-Cayley
  shortcut (alpha * omega = n forces chi = omega);
* clique cover: verification of structural hints, exact via coloring the
  complement on small graphs, greedy otherwise;
* fractional packing: pivoting Bron-Kerbosch maximal-clique enumeration and
  an exact rational simplex, so values like 5/2 come out as Fractions;
* Lovasz theta: an LP over the graph's association scheme when its
  coherent closure is small and commutative, else an ADMM splitting on the
  standard SDP; either way a rigorous dual certificate (any edge-supported
  correction Y gives the upper bound lambda_max(J - Y)) and a feasible
  primal give a two-sided bracket;
* induced odd cycles C_{2k+1} and their complements, exhaustive within budget.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import BudgetExceededError, InvalidHintError
from .graphs import Graph, _bits

DEFAULT_BUDGET = 60.0
# largest graph given an exact chromatic search (and so an exact clique cover)
EXACT_COLORING_LIMIT = 64
# largest graph given the theta SDP
THETA_VERTEX_LIMIT = 200


# ---------------------------------------------------------------------------
# maximum clique
# ---------------------------------------------------------------------------

@dataclass
class CliqueResult:
    size: int
    witness: tuple[int, ...]
    exact: bool
    nodes: int = 0
    elapsed: float = 0.0

    @property
    def status(self) -> str:
        return "exact" if self.exact else "bounded"


def greedy_clique(g: Graph) -> list[int]:
    """Deterministic greedy clique (highest degree first), used as a warm start."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    best: list[int] = []
    for start in order[: min(g.n, 40)]:
        clique = [start]
        cand = g.rows[start]
        while cand:
            v = max(_bits(cand), key=lambda u: ((cand & g.rows[u]).bit_count(), -u))
            clique.append(v)
            cand &= g.rows[v]
        if len(clique) > len(best):
            best = clique
    return sorted(best)


def _degree_order(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """Relabel g by (-degree, v): returns (order, to_new, adj), where order[new]
    is the old vertex, to_new inverts it and adj holds the relabeled rows."""
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    to_new = [0] * n
    for new, old in enumerate(order):
        to_new[old] = new
    adj = [0] * n
    for old in range(n):
        row = 0
        r = g.rows[old]
        while r:
            low = r & -r
            row |= 1 << to_new[low.bit_length() - 1]
            r ^= low
        adj[to_new[old]] = row
    return order, to_new, adj


def max_clique(
    g: Graph, budget: float = DEFAULT_BUDGET, upper: int | None = None
) -> CliqueResult:
    """Exact maximum clique within budget seconds, else best found (bounded).

    Tomita-style branch and bound: candidates greedy-colored per node, with
    the color number bounding any extension.  Vertices are relabeled by
    descending degree at the root so the LSB-first coloring follows a good
    static order.  ``upper`` is a known bound on omega (a verified cover of the
    complement, a Hilbert dimension): the search stops as exact once a clique
    of that size is found.  The best clique is only ever replaced by a
    strictly larger one, so the witness is the one the full search returns.
    """
    t0 = time.monotonic()
    n = g.n
    if n == 0:
        return CliqueResult(0, (), True)
    order0, to_new, adj = _degree_order(g)
    best_wit = [to_new[v] for v in greedy_clique(g)]
    best_size = len(best_wit)
    goal = n if upper is None else upper
    t_end = t0 + budget
    nodes = 0
    timed_out = False
    stop = best_size >= goal
    monotonic = time.monotonic

    def expand(cand: int, cur: list[int], size: int) -> None:
        nonlocal best_size, best_wit, nodes, timed_out, stop
        nodes += 1
        if nodes & 255 == 0 and monotonic() > t_end:
            timed_out = stop = True
        if stop or size + cand.bit_count() <= best_size:
            return
        # greedy-color the candidate set; color number bounds the clique extension
        order: list[int] = []
        colors: list[int] = []
        rest = cand
        cnum = 0
        while rest:
            cnum += 1
            cls = rest
            while cls:
                low = cls & -cls
                v = low.bit_length() - 1
                order.append(v)
                colors.append(cnum)
                rest ^= low
                cls &= ~adj[v] & rest
        for i in range(len(order) - 1, -1, -1):
            if size + colors[i] <= best_size:
                return
            v = order[i]
            cur.append(v)
            if size + 1 > best_size:
                best_size = size + 1
                best_wit = cur.copy()
                stop = best_size >= goal
            newcand = cand & adj[v]
            if newcand and not stop:
                expand(newcand, cur, size + 1)
            cur.pop()
            cand &= ~(1 << v)
            if stop:
                return

    if not stop:
        expand((1 << n) - 1, [], 0)
    wit = tuple(sorted(order0[v] for v in best_wit))
    if wit and not verify_clique(g, wit):
        raise AssertionError("witness failed re-verification")
    return CliqueResult(best_size, wit, not timed_out, nodes, time.monotonic() - t0)


def independence_number(
    g: Graph, budget: float = DEFAULT_BUDGET, upper: int | None = None
) -> CliqueResult:
    """alpha(g) = omega(complement(g)); witness is an independent set of g."""
    res = max_clique(g.complement(), budget, upper)
    if res.witness and not verify_independent_set(g, res.witness):
        raise AssertionError("independent-set witness failed re-verification")
    return res


def verify_clique(g: Graph, vertices) -> bool:
    vs = list(vertices)
    return all(g.has_edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :])


def verify_independent_set(g: Graph, vertices) -> bool:
    vs = list(vertices)
    return not any(g.has_edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :])


# ---------------------------------------------------------------------------
# coloring / clique cover
# ---------------------------------------------------------------------------

def greedy_coloring(g: Graph) -> tuple[int, list[int]]:
    """Largest-degree-first greedy coloring; an upper bound on chi."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    color = [-1] * g.n
    ncol = 0
    for v in order:
        used = {color[w] for w in _bits(g.rows[v]) if color[w] >= 0}
        c = 0
        while c in used:
            c += 1
        color[v] = c
        ncol = max(ncol, c + 1)
    return ncol, color


@dataclass
class ChromaticResult:
    lower: int
    upper: int
    exact: bool
    route: str
    coloring: list[int] | None = None
    nodes: int = 0

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("chromatic number is only bracketed")
        return self.upper


def _k_colorable(g: Graph, k: int, clique: tuple[int, ...], t_end: float):
    """DSATUR backtracking k-coloring with a precolored clique.

    Returns (result, nodes): result is a coloring, False when none exists,
    or None on timeout.  Vertices are relabeled by (-degree, v), so the
    branching vertex, the uncolored one seeing the most colors with ties to
    higher degree then lower index, is the lowest bit of the highest
    saturation level.  nb[c] is the set of vertices with a neighbor colored
    c; the levels are bit-sliced counters over those k masks.
    """
    _, to_new, adj = _degree_order(g)
    color = [-1] * g.n
    nb = [0] * k
    uncolored = (1 << g.n) - 1
    for c, v in enumerate(clique):
        u = to_new[v]
        color[u] = c
        nb[c] |= adj[u]
        uncolored &= ~(1 << u)
    nodes = 0
    monotonic = time.monotonic

    def solve(used: int):
        nonlocal nodes, uncolored
        nodes += 1
        if nodes % 512 == 0 and monotonic() > t_end:
            return None
        if not uncolored:
            return True
        # lev[s]: uncolored vertices with neighbors in at least s colors
        lev = [uncolored]
        for c in range(used):
            m = nb[c]
            lev.append(lev[-1] & m)
            for s in range(len(lev) - 2, 0, -1):
                lev[s] |= lev[s - 1] & m
        top = len(lev) - 1
        while not lev[top]:
            top -= 1
        low = lev[top] & -lev[top]
        v = low.bit_length() - 1
        row = adj[v]
        uncolored ^= low
        # allowing at most one brand-new color breaks color symmetry
        for c in range(min(used + 1, k)):
            saved = nb[c]
            if saved & low:
                continue
            color[v] = c
            nb[c] = saved | row
            r = solve(max(used, c + 1))
            if r is not False:
                return r
            nb[c] = saved
        color[v] = -1
        uncolored |= low
        return False

    r = solve(len(clique))
    if r is True:
        return [color[to_new[v]] for v in range(g.n)], nodes
    return r, nodes  # False or None


def chromatic_number(
    g: Graph,
    budget: float = DEFAULT_BUDGET,
    omega: CliqueResult | None = None,
    alpha: CliqueResult | None = None,
    normal_cayley: bool = False,
) -> ChromaticResult:
    """Exact chi for small graphs, the normal-Cayley theorem route, or a bracket.

    ``omega`` is a maximum-clique result the caller already holds; without one
    it is solved here, inside the same ``budget``.  ``normal_cayley`` states
    that g is a normal Cayley graph, where exact alpha * omega = n forces
    chi = omega; ``alpha`` is only read for that route.
    """
    t_end = time.monotonic() + budget
    if omega is None:
        omega = max_clique(g, budget)
    lo = omega.size
    if normal_cayley and alpha is not None and alpha.exact and omega.exact:
        if alpha.size * omega.size == g.n:
            return ChromaticResult(lo, lo, True, "normal-cayley")
    up, coloring = greedy_coloring(g)
    if lo == up:
        return ChromaticResult(lo, up, True, "greedy-met-clique", coloring)
    if g.n > EXACT_COLORING_LIMIT:
        return ChromaticResult(lo, up, False, "bracket", coloring)
    k = lo
    nodes = 0
    while k < up:
        r, searched = _k_colorable(g, k, omega.witness, t_end)
        nodes += searched
        if r is None:
            return ChromaticResult(k, up, False, "budget", coloring, nodes)
        if r is not False:
            return ChromaticResult(k, k, True, "branch-and-bound", r, nodes)
        k += 1
    return ChromaticResult(up, up, True, "branch-and-bound", coloring, nodes)


@dataclass
class CoverResult:
    size: int
    cover: list[list[int]]
    exact: bool
    route: str


def verify_cover(g: Graph, blocks: list[list[int]]) -> None:
    """Raise InvalidHintError unless the blocks are cliques covering every vertex."""
    seen: set[int] = set()
    for block in blocks:
        if not verify_clique(g, block):
            raise InvalidHintError(f"hint block {block} is not a clique")
        seen.update(block)
    if seen != set(range(g.n)):
        raise InvalidHintError("hint does not cover every vertex")


def clique_cover(
    g: Graph,
    hint: list[list[int]] | None = None,
    lower_bound: int | None = None,
    budget: float = DEFAULT_BUDGET,
    alpha: CliqueResult | None = None,
) -> CoverResult:
    """Minimum clique cover, or a verified structural hint.

    A hint must cover every vertex with cliques; its size is returned and
    marked exact when it meets a known lower bound (alpha, or n/omega from a
    dimension argument, supplied by the caller).  Without a hint the cover
    is chi of the complement, whose omega is ``alpha`` when the caller holds it.
    """
    if hint is not None:
        verify_cover(g, hint)
        exact = lower_bound is not None and len(hint) <= lower_bound
        return CoverResult(len(hint), [sorted(b) for b in hint], exact, "hint")
    comp = g.complement()
    if g.n <= EXACT_COLORING_LIMIT:
        chi = chromatic_number(comp, budget, omega=alpha)
        cover = _cover_from_coloring(chi.coloring, g.n) if chi.coloring else []
        if chi.exact:
            return CoverResult(chi.value, cover, True, "chi-of-complement")
        return CoverResult(chi.upper, cover, False, "budget")
    ncol, coloring = greedy_coloring(comp)
    return CoverResult(ncol, _cover_from_coloring(coloring, g.n), False, "greedy")


def _cover_from_coloring(coloring: list[int], n: int) -> list[list[int]]:
    blocks: dict[int, list[int]] = {}
    for v in range(n):
        blocks.setdefault(coloring[v], []).append(v)
    return [sorted(b) for _, b in sorted(blocks.items())]


# ---------------------------------------------------------------------------
# fractional packing number (exact rational LP)
# ---------------------------------------------------------------------------

def maximal_cliques(g: Graph, limit: int = 2_000_000) -> list[int]:
    """All maximal cliques as bitmasks, via Bron-Kerbosch with pivoting."""
    out: list[int] = []
    adj = g.rows

    def bk(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            if len(out) > limit:
                raise BudgetExceededError("too many maximal cliques")
            return
        pivot_pool = p | x
        pivot = max(_bits(pivot_pool), key=lambda u: ((p & adj[u]).bit_count(), -u))
        cand = p & ~adj[pivot]
        for v in _bits(cand):
            vb = 1 << v
            bk(r | vb, p & adj[v], x & adj[v])
            p &= ~vb
            x |= vb

    bk(0, (1 << g.n) - 1, 0)
    return out


def _simplex_max(cliques: list[int], n_vars: int) -> tuple[Fraction, list[Fraction]]:
    """Exact simplex for max 1.x s.t. sum_{v in C} x_v <= 1 per clique mask C, x >= 0.

    Fraction-free (Edmonds; Bareiss, Math. Comp. 22, 565, 1968): the integer
    tableau is the rational one scaled by the basis determinant D > 0, and a
    pivot on p maps each entry a to (a p - f b) / D_old, an exact division.
    Dantzig pivoting (most negative reduced cost) for speed, switching to
    Bland's rule after a pivot-count threshold to guarantee termination.
    The optimum is checked against the dual read off the slack columns.
    """
    m = len(cliques)
    width = n_vars + m + 1
    tab = []
    for i, mask in enumerate(cliques):
        row = [mask >> v & 1 for v in range(n_vars)] + [0] * m + [1]
        row[n_vars + i] = 1
        tab.append(row)
    obj = [-1] * n_vars + [0] * (m + 1)
    basis = [n_vars + i for i in range(m)]
    det = 1
    pivots = 0
    bland_after = 4 * (m + n_vars)
    while True:
        if pivots < bland_after:
            enter, val = None, 0
            for j in range(width - 1):
                if obj[j] < val:
                    enter, val = j, obj[j]
        else:
            enter = next((j for j in range(width - 1) if obj[j] < 0), None)
        if enter is None:
            break
        # min ratio rhs/a over a > 0, compared by cross-multiplication
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = tab[i][-1] * tab[leave][enter]
                rhs = tab[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("LP unbounded; packing LP should be bounded")
        pivot_row = tab[leave]
        piv = pivot_row[enter]
        for i in range(m):
            if i == leave:
                continue
            f = tab[i][enter]
            if f:
                tab[i] = [(a * piv - f * b) // det for a, b in zip(tab[i], pivot_row)]
            elif piv != det:
                tab[i] = [a * piv // det for a in tab[i]]
        f = obj[enter]
        obj = [(a * piv - f * b) // det for a, b in zip(obj, pivot_row)]
        basis[leave] = enter
        det = piv
        pivots += 1
    scaled = [0] * n_vars
    for i, b in enumerate(basis):
        if b < n_vars:
            scaled[b] = tab[i][-1]
    _check_packing_duality(cliques, scaled, obj[n_vars : n_vars + m], det)
    return Fraction(sum(scaled), det), [Fraction(v, det) for v in scaled]


def _check_packing_duality(cliques: list[int], x: list[int], y: list[int], det: int) -> None:
    """Certify x/det optimal by the dual y/det, in integers: Ax <= 1, x >= 0,
    A^T y >= 1, y >= 0 and sum x == sum y."""
    cover = [0] * len(x)
    for mask, yi in zip(cliques, y):
        if sum(x[v] for v in _bits(mask)) > det:
            raise AssertionError("packing LP solution violates a clique constraint")
        for v in _bits(mask):
            cover[v] += yi
    if any(v < 0 for v in x) or any(v < 0 for v in y):
        raise AssertionError("packing LP primal or dual has a negative entry")
    if any(c < det for c in cover):
        raise AssertionError("packing LP dual violates a vertex constraint")
    if sum(x) != sum(y):
        raise AssertionError("packing LP primal and dual values differ")


def fractional_packing(
    g: Graph, max_vertices: int = 200, clique_limit: int = 200_000
) -> tuple[Fraction, list[Fraction]]:
    """alpha*(g): max sum x_v with sum over each maximal clique <= 1, exactly."""
    if g.n > max_vertices:
        raise BudgetExceededError(f"fractional packing capped at {max_vertices} vertices")
    return _simplex_max(maximal_cliques(g, limit=clique_limit), g.n)


# ---------------------------------------------------------------------------
# Lovasz theta (association scheme LP or ADMM, with a dual certificate)
# ---------------------------------------------------------------------------

# most relations the coherent closure may reach before the scheme route gives up
SCHEME_RELATION_LIMIT = 10


@dataclass
class ThetaResult:
    value: float
    lower: float
    upper: float
    iterations: int
    converged: bool
    route: str = "admm"

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    @property
    def status(self) -> str:
        return "tolerance" if self.converged else "no-convergence"


def _adjacency(g: Graph) -> np.ndarray:
    """The n x n boolean adjacency matrix of g."""
    width = (g.n + 7) // 8
    packed = np.frombuffer(
        b"".join(r.to_bytes(width, "little") for r in g.rows), dtype=np.uint8
    ).reshape(g.n, width)
    return np.unpackbits(packed, axis=1, count=g.n, bitorder="little").astype(bool)


def coherent_closure(g: Graph) -> tuple[np.ndarray, np.ndarray] | None:
    """g's coherent closure when it is a commutative association scheme of
    at most SCHEME_RELATION_LIMIT relations, else None.

    Returns (rel, p): rel[i, j] names the relation holding the pair (i, j),
    and p[a, b, k] is the intersection number, the (i, j) entry of A_a A_b
    on every pair of relation k.  2-dimensional Weisfeiler-Leman refinement
    starts from {I, A, J - A - I}: a relation splits whenever some product
    A_a A_b of relation matrices is not constant on it.  A pass over all
    products with no split proves the relations closed under
    multiplication.  Refinement stops early once the diagonal splits (more
    than one fibre) or the relation count passes the limit; a closure with
    p[a, b] != p[b, a] is not commutative and is rejected too.
    """
    n = g.n
    rel = np.where(_adjacency(g), 1, 2)
    np.fill_diagonal(rel, 0)
    rel = _relabel(rel.ravel())  # a complete or empty graph has two relations
    while True:
        r = int(rel.max()) + 1
        rep = _representatives(rel)
        p = np.empty((r, r, r))
        split = False
        for a in range(r):
            left = (rel == a).reshape(n, n).astype(np.float32)
            for b in range(r):
                right = (rel == b).reshape(n, n).astype(np.float32)
                count = (left @ right).ravel()  # exact: sums of 0/1 below 2^24
                if (count[rep][rel] != count).any():
                    rel = _relabel(rel.astype(np.int32) * (n + 1) + count.astype(np.int32))
                    if rel is None or (rel[:: n + 1] != rel[0]).any():
                        return None
                    rep = _representatives(rel)
                    split = True
                elif not split:
                    p[a, b] = count[rep]
        if not split:
            break
    if (p != p.transpose(1, 0, 2)).any():
        return None
    return rel.reshape(n, n), p


def _relabel(key: np.ndarray) -> np.ndarray | None:
    """The values of key renamed 0, 1, ... in sorted order, or None if there
    are more than SCHEME_RELATION_LIMIT of them."""
    label = np.cumsum(np.bincount(key) > 0) - 1
    return None if label[-1] >= SCHEME_RELATION_LIMIT else label.astype(np.uint8)[key]


def _representatives(rel: np.ndarray) -> np.ndarray:
    """The first flat index of each relation in a relation matrix."""
    flat = rel.ravel()
    return np.array([np.argmax(flat == k) for k in range(int(flat.max()) + 1)])


def _vertex_lp(c: np.ndarray, G: np.ndarray, h: np.ndarray) -> np.ndarray | None:
    """argmax c.x subject to G x <= h, for a bounded LP with a vertex and a
    handful of variables: each vertex solves len(c) linearly independent
    rows of G x = h, and the best feasible one is optimal.  None if no
    vertex is feasible."""
    k = len(c)
    if k == 0:
        return np.zeros(0)
    slack = 1e-9 * (1.0 + np.abs(h).max())
    best, arg = -np.inf, None
    for rows in combinations(range(len(G)), k):
        sub = G[list(rows)]
        if np.linalg.matrix_rank(sub) < k:
            continue
        x = np.linalg.solve(sub, h[list(rows)])
        if (G @ x <= h + slack).all() and c @ x > best:
            best, arg = c @ x, x
    return arg


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    edges = g.edges()
    ei = np.array([e[0] for e in edges], dtype=int)
    ej = np.array([e[1] for e in edges], dtype=int)
    return ei, ej


def _theta_affine(M: np.ndarray, ei: np.ndarray, ej: np.ndarray) -> np.ndarray:
    """M symmetrized, zeroed on the edges and shifted on the diagonal to trace 1."""
    n = len(M)
    M = M + M.T
    M *= 0.5
    if len(ei):
        M[ei, ej] = 0.0
        M[ej, ei] = 0.0
    M[np.diag_indices(n)] += (1.0 - np.trace(M)) / n
    return M


def _theta_bracket(
    X: np.ndarray, on_edges: np.ndarray, ei: np.ndarray, ej: np.ndarray
) -> tuple[float, float]:
    """A certified (lower, upper) bracket on theta from any n x n X and any
    values on the edges (ei[k], ej[k]).

    Upper: theta <= lambda_max(M) for every symmetric M equal to 1 on the
    diagonal and the non-edges; M takes ``on_edges`` on the edges.  Lower:
    X moved onto the affine constraints and mixed with I/n until PSD is a
    feasible point of the SDP, and <J, X> at it is attained.
    """
    n = len(X)
    A = np.ones((n, n))
    A[ei, ej] = A[ej, ei] = on_edges
    upper = float(np.linalg.eigvalsh(A)[-1])
    del A
    Xhat = _theta_affine(X, ei, ej)
    mix = max(0.0, -float(np.linalg.eigvalsh(Xhat)[0]))
    Xhat[np.diag_indices(n)] += mix
    Xhat /= 1.0 + mix * n
    return float(np.sum(Xhat)), upper


def scheme_theta(g: Graph, tol: float = 1e-6) -> ThetaResult | None:
    """theta(g) from the LP over g's association scheme (route "scheme"), or
    None when g has none of at most SCHEME_RELATION_LIMIT relations or the
    certified gap exceeds tol.

    On a commutative scheme an optimal theta matrix lies in the Bose-Mesner
    algebra (Schrijver, IEEE TIT 25, 425, 1979; de Klerk-Pasechnik-Schrijver,
    Math. Program. 109, 613, 2007).  Relations merged with their transposes
    give symmetric classes B_c.  Their eigenmatrix P (P[j, c] = eigenvalue
    of B_c on eigenspace j) comes from the intersection numbers: the maps
    "multiply by B_c" on the basis {B_c} share their eigenvectors, read off
    one generic combination whose eigenvalues must be distinct and real.
    With x_c = 1 on the diagonal class and 0 on the edge classes:

      primal  max sum_c deg_c x_c  subject to  P x >= 0,
              lifted to X = sum_c x_c B_c / n;
      dual    min s over edge weights t_c  subject to  s >= each eigenvalue
              of J + sum_c t_c B_c, lifted to that matrix.

    ``_theta_bracket`` certifies both lifts on the full n x n matrices.
    """
    closure = coherent_closure(g)
    if closure is None:
        return None
    rel, p = closure
    n = g.n
    r = len(p)
    # merge each relation with its transpose into a symmetric class
    rep = _representatives(rel)
    merged = _relabel(np.minimum(np.arange(r), rel[rep % n, rep // n]))
    s = int(merged.max()) + 1
    # q[I, J, k]: coefficient of A_k in B_I B_J, equal on k and its transpose
    q = np.zeros((s, s, r))
    np.add.at(q, (merged[:, None], merged[None, :]), p)
    Q = q[:, :, _representatives(merged)]
    if (Q[:, :, merged] != q).any():
        return None
    # L[I] multiplies by B_I: L[I][K, J] = Q[I, J, K].  Fixed generic weights;
    # eigenvalues tied on them fail the check and leave g to the ADMM.
    L = Q.transpose(0, 2, 1)
    w, U = np.linalg.eig(np.tensordot(1.0 / (np.arange(s) + np.pi), L, 1))
    gaps = np.diff(np.sort(w.real))
    if np.abs(w.imag).max() > 1e-9 or (gaps < 1e-6 * np.abs(w).max()).any():
        return None
    P = np.einsum("jk,ikl,lj->ji", np.linalg.inv(U), L, U).real
    sym = merged[rel]
    diag = sym[0, 0]
    edge = np.array([g.has_edge(*divmod(int(i), n)) for i in _representatives(sym)])
    free = np.flatnonzero(~edge & (np.arange(s) != diag))
    deg = np.bincount(sym[0], minlength=s).astype(float)
    hit = np.flatnonzero(edge)
    minimize_s = np.zeros(len(hit) + 1)
    minimize_s[-1] = -1.0
    primal = _vertex_lp(deg[free], -P[:, free], P[:, diag])
    dual = _vertex_lp(minimize_s, np.hstack([P[:, hit], -np.ones((s, 1))]), -P.sum(axis=1))
    if primal is None or dual is None:
        return None
    x = np.zeros(s)
    x[diag] = 1.0
    x[free] = primal
    t = np.zeros(s)
    t[hit] = dual[:-1]
    ei, ej = _edge_arrays(g)
    X = x[sym]
    X /= n
    lo, up = _theta_bracket(X, 1.0 + t[sym[ei, ej]], ei, ej)
    if up - lo > tol:
        return None
    return ThetaResult(0.5 * (lo + up), lo, up, 0, True, "scheme")


def admm_theta(
    g: Graph,
    tol: float = 1e-6,
    max_iter: int = 100_000,
    max_vertices: int = THETA_VERTEX_LIMIT,
    check_every: int = 250,
) -> ThetaResult:
    """theta(g) by the ADMM splitting (route "admm"), capped at max_vertices.

    Alternating projections between the affine constraints and the PSD
    cone.  The scaled dual variable gives the edge values of the upper
    bound, the iterate the primal, so ``_theta_bracket`` certifies the
    bracket however far the iteration converged.
    """
    n = g.n
    if n > max_vertices:
        raise BudgetExceededError(f"theta SDP capped at {max_vertices} vertices")
    ei, ej = _edge_arrays(g)
    J = np.ones((n, n))
    rho = 1.0
    Z = np.eye(n) / n
    U = np.zeros((n, n))
    best = (-np.inf, np.inf)
    it = 0
    res_tol = max(tol * 1e-2, 1e-12)
    for it in range(1, max_iter + 1):
        X = _theta_affine(Z - U + J / rho, ei, ej)
        W = X + U
        w, V = np.linalg.eigh(W)
        Zn = (V * np.maximum(w, 0.0)) @ V.T
        r = float(np.linalg.norm(X - Zn))
        s = float(rho * np.linalg.norm(Zn - Z))
        Z = Zn
        U = U + X - Zn
        if it % check_every == 0 or (r < res_tol and s < res_tol):
            lo, up = _theta_bracket(Z, _admm_edges(U, rho, ei, ej), ei, ej)
            best = (max(best[0], lo), min(best[1], up))
            if best[1] - best[0] <= tol:
                return ThetaResult(
                    0.5 * (best[0] + best[1]), best[0], best[1], it, True
                )
        if it % 100 == 0:
            if r > 10 * s:
                rho *= 2.0
                U /= 2.0
            elif s > 10 * r:
                rho /= 2.0
                U *= 2.0
    lo, up = _theta_bracket(Z, _admm_edges(U, rho, ei, ej), ei, ej)
    best = (max(best[0], lo), min(best[1], up))
    return ThetaResult(0.5 * (best[0] + best[1]), best[0], best[1], it, False)


def _admm_edges(U: np.ndarray, rho: float, ei: np.ndarray, ej: np.ndarray) -> np.ndarray:
    """Edge values of the ADMM upper bound: the dual PSD slack is
    S = tI + Y - J = -rho U, so M = J - Y takes -S, symmetrized, on the edges."""
    return 0.5 * (rho * U[ei, ej] + rho * U[ej, ei])


def lovasz_theta(
    g: Graph,
    tol: float = 1e-6,
    max_iter: int = 100_000,
    max_vertices: int = THETA_VERTEX_LIMIT,
    check_every: int = 250,
) -> ThetaResult:
    """theta(g) via the SDP max <J,X>, Tr X = 1, X_ij = 0 on edges, X >= 0.

    ``scheme_theta`` first, at any size; otherwise ``admm_theta``, which
    alone is capped at ``max_vertices``.  Both return a bracket certified
    on the full n x n matrices.
    """
    if g.n == 0:
        return ThetaResult(0.0, 0.0, 0.0, 0, True)
    res = scheme_theta(g, tol)
    if res is not None:
        return res
    return admm_theta(g, tol, max_iter, max_vertices, check_every)


def theta_cycle_closed_form(m: int) -> float:
    """theta(C_m) for odd m: m cos(pi/m) / (1 + cos(pi/m))."""
    c = np.cos(np.pi / m)
    return float(m * c / (1 + c))


# ---------------------------------------------------------------------------
# induced odd cycles
# ---------------------------------------------------------------------------

@dataclass
class CycleWitness:
    k: int
    status: str  # "found" | "absent" | "unknown"
    kind: str | None = None  # "cycle" | "complement"
    vertices: tuple[int, ...] = ()


def _induced_cycle_search(g: Graph, length: int, t_end: float, find_all: bool):
    """Induced cycles of one length via DFS over induced paths.

    Each cycle is produced exactly once: rooted at its minimum vertex, with
    the orientation fixed by second-vertex < closing-vertex.  The blocked mask
    holds vertices <= root, path members, and neighbors of interior vertices;
    interior growth additionally avoids neighbors of the root, which the
    closing vertex alone is required to touch.
    """
    adj = g.rows
    found: list[tuple[int, ...]] = []
    state = {"nodes": 0, "completed": True}

    def dfs(path: list[int], blocked: int) -> bool:
        state["nodes"] += 1
        if state["nodes"] % 4096 == 0 and time.monotonic() > t_end:
            state["completed"] = False
            return True
        s = path[0]
        last = path[-1]
        if len(path) == length - 1:
            closers = adj[last] & adj[s] & ~blocked
            for v in _bits(closers):
                if v > path[1]:
                    found.append(tuple(path) + (v,))
                    if not find_all:
                        return True
            return False
        cand = adj[last] & ~blocked
        if len(path) > 1:
            cand &= ~adj[s]
        for v in _bits(cand):
            extra = adj[last] if len(path) > 1 else 0
            path.append(v)
            if dfs(path, blocked | (1 << v) | extra):
                path.pop()
                return True
            path.pop()
        return False

    for s in range(g.n):
        low = (1 << (s + 1)) - 1
        hit = dfs([s], low)
        if not state["completed"] or (hit and not find_all):
            break
    return found, state["completed"]


def induced_odd_cycles(
    g: Graph, k_max: int, budget: float = DEFAULT_BUDGET, find_all: bool = False
) -> dict[int, CycleWitness]:
    """For each k in 2..k_max, look for an induced C_{2k+1} in g or an induced
    complement-of-C_{2k+1} (equivalently, C_{2k+1} induced in the complement)."""
    out: dict[int, CycleWitness] = {}
    comp = g.complement()
    t_end = time.monotonic() + budget
    for k in range(2, k_max + 1):
        length = 2 * k + 1
        if length > g.n:
            out[k] = CycleWitness(k, "absent")
            continue
        wit, done = _induced_cycle_search(g, length, t_end, find_all=False)
        if wit:
            out[k] = CycleWitness(k, "found", "cycle", wit[0])
            continue
        cwit, cdone = _induced_cycle_search(comp, length, t_end, find_all=False)
        if cwit:
            out[k] = CycleWitness(k, "found", "complement", cwit[0])
        elif done and cdone:
            out[k] = CycleWitness(k, "absent")
        else:
            out[k] = CycleWitness(k, "unknown")
    return out


def count_induced_cycles(g: Graph, length: int, budget: float = DEFAULT_BUDGET):
    """All induced cycles of one length (each exactly once); (witnesses, complete)."""
    return _induced_cycle_search(g, length, time.monotonic() + budget, find_all=True)


def verify_induced_cycle(g: Graph, vertices: tuple[int, ...]) -> bool:
    L = len(vertices)
    for i in range(L):
        for j in range(i + 1, L):
            expected = (j - i) % L in (1, L - 1)
            if g.has_edge(vertices[i], vertices[j]) != expected:
                return False
    return True


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class InvariantReport:
    """Computed invariants for one graph, with per-field solver status."""

    graph_id: str
    n: int
    fields: dict = field(default_factory=dict)

    def set(self, name: str, value, status: str, **extra) -> None:
        entry = {"value": value, "status": status}
        entry.update(extra)
        self.fields[name] = entry

    def get(self, name: str):
        return self.fields[name]["value"]

    def to_json(self) -> str:
        def default(o):
            if isinstance(o, Fraction):
                return {"num": o.numerator, "den": o.denominator}
            if isinstance(o, (tuple, frozenset)):
                return sorted(o) if isinstance(o, frozenset) else list(o)
            raise TypeError(f"cannot serialize {type(o)}")

        payload = {"graph_id": self.graph_id, "n": self.n}
        payload.update(self.fields)
        return json.dumps(payload, sort_keys=True, default=default)


def compute_report(
    g: Graph,
    graph_id: str,
    budget: float = DEFAULT_BUDGET,
    tol: float = 1e-6,
    hilbert_dim: int | None = None,
    cover_hint: list[list[int]] | None = None,
    normal_cayley: bool = False,
) -> InvariantReport:
    """Assemble the alpha/omega/chi/chibar/alpha*/theta report for one graph.

    Each invariant is solved once, and the alpha, omega, chi and cover
    searches share one deadline ``budget`` seconds away.  Bounds the report
    already holds close fields without search: a verified cover hint bounds
    alpha (an independent set meets each clique once), ``hilbert_dim`` bounds
    omega (orthogonal rank-1 projectors in C^D), and alpha == chibar fixes
    theta and alpha* by the sandwich alpha <= theta <= alpha* <= chibar.
    Otherwise the LP and the SDP run, each capped by vertex count.
    """
    t_end = time.monotonic() + budget

    def left() -> float:
        return max(0.0, t_end - time.monotonic())

    rep = InvariantReport(graph_id, g.n)
    if cover_hint is not None:
        verify_cover(g, cover_hint)
    alpha = independence_number(
        g, left(), upper=None if cover_hint is None else len(cover_hint)
    )
    rep.set("alpha", alpha.size, alpha.status, witness=list(alpha.witness))
    om = max_clique(g, left(), upper=hilbert_dim)
    rep.set("omega", om.size, om.status, witness=list(om.witness))
    chi = chromatic_number(g, left(), omega=om, alpha=alpha, normal_cayley=normal_cayley)
    if chi.exact:
        rep.set("chi", chi.value, "exact", route=chi.route)
    else:
        rep.set("chi", [chi.lower, chi.upper], "bounded", route=chi.route)
    lower = None
    if alpha.exact and om.exact:
        # any clique cover needs at least alpha blocks and at least n/omega
        lower = max(alpha.size, -(-g.n // om.size) if om.size else g.n)
    elif alpha.exact:
        lower = alpha.size
    cover = clique_cover(g, hint=cover_hint, lower_bound=lower, budget=left(), alpha=alpha)
    rep.set("clique_cover", cover.size, "exact" if cover.exact else "bounded", route=cover.route)
    if alpha.exact and cover.exact and alpha.size == cover.size:
        rep.set("alpha_star", Fraction(alpha.size), "exact", route="sandwich")
        value = float(alpha.size)
        rep.set("theta", value, "exact", route="sandwich", gap=0.0, lower=value, upper=value)
    else:
        try:
            astar, _ = fractional_packing(g)
            rep.set("alpha_star", astar, "exact")
        except BudgetExceededError:
            rep.set("alpha_star", None, "skipped")
        if g.n <= THETA_VERTEX_LIMIT:
            th = lovasz_theta(g, tol=tol)
            rep.set("theta", th.value, th.status, route=th.route, gap=th.gap,
                    lower=th.lower, upper=th.upper)
        else:
            rep.set("theta", None, "skipped")
    if hilbert_dim is not None and chi.exact:
        rep.set("sic_flag", chi.value > hilbert_dim, "exact", hilbert_dim=hilbert_dim)
    return rep


# ---------------------------------------------------------------------------
# brute-force oracles (used by the test-suite on tiny graphs)
# ---------------------------------------------------------------------------

def brute_alpha(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        vs = [v for v in range(g.n) if mask >> v & 1]
        if len(vs) > best and verify_independent_set(g, vs):
            best = len(vs)
    return best


def brute_omega(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        vs = [v for v in range(g.n) if mask >> v & 1]
        if len(vs) > best and verify_clique(g, vs):
            best = len(vs)
    return best


def brute_colorable(g: Graph, k: int) -> bool:
    """Exhaustive k-coloring: each vertex in index order tries every color
    its lower-indexed neighbors leave free."""
    color: list[int] = []

    def extend(v: int) -> bool:
        if v == g.n:
            return True
        for c in range(k):
            if all(color[w] != c for w in _bits(g.rows[v] & ((1 << v) - 1))):
                color.append(c)
                if extend(v + 1):
                    return True
                color.pop()
        return False

    return extend(0)


def brute_chi(g: Graph) -> int:
    return next(k for k in range(g.n + 1) if brute_colorable(g, k))


def brute_chibar(g: Graph) -> int:
    return brute_chi(g.complement())
