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
* Lovasz theta: an ADMM splitting on the standard SDP with a rigorous
  dual certificate (any edge-supported correction Y gives the upper bound
  lambda_max(J - Y)), reported as a two-sided bracket;
* induced odd cycles C_{2k+1} and their complements, exhaustive within budget.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, InvalidHintError
from .graphs import Graph, _bits

DEFAULT_BUDGET = 60.0


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


def max_clique(g: Graph, budget: float = DEFAULT_BUDGET, initial: int = 0) -> CliqueResult:
    """Exact maximum clique within budget seconds, else best found (bounded).

    Tomita-style branch and bound: candidates greedy-colored per node, with
    the color number bounding any extension.  Vertices are relabeled by
    descending degree at the root so the LSB-first coloring follows a good
    static order.
    """
    t0 = time.monotonic()
    n = g.n
    if n == 0:
        return CliqueResult(0, (), True)
    order0 = sorted(range(n), key=lambda v: (-g.degree(v), v))
    to_new = [0] * n
    for new, old in enumerate(order0):
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
    warm = [to_new[v] for v in greedy_clique(g)]
    best_size = max(initial, len(warm))
    best_wit = warm if len(warm) >= initial else []
    t_end = t0 + budget
    nodes = 0
    timed_out = False
    monotonic = time.monotonic

    def expand(cand: int, cur: list[int], size: int) -> None:
        nonlocal best_size, best_wit, nodes, timed_out
        nodes += 1
        if nodes & 255 == 0 and monotonic() > t_end:
            timed_out = True
        if timed_out or size + cand.bit_count() <= best_size:
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
            newcand = cand & adj[v]
            if newcand:
                expand(newcand, cur, size + 1)
            cur.pop()
            cand &= ~(1 << v)
            if timed_out:
                return

    expand((1 << n) - 1, [], 0)
    wit = tuple(sorted(order0[v] for v in best_wit))
    if wit and not verify_clique(g, wit):
        raise AssertionError("witness failed re-verification")
    return CliqueResult(best_size, wit, not timed_out, nodes, time.monotonic() - t0)


def independence_number(g: Graph, budget: float = DEFAULT_BUDGET) -> CliqueResult:
    """alpha(g) = omega(complement(g)); witness is an independent set of g."""
    res = max_clique(g.complement(), budget)
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

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("chromatic number is only bracketed")
        return self.upper


def _k_colorable(g: Graph, k: int, clique: tuple[int, ...], t_end: float):
    """Backtracking k-coloring with a precolored clique; None on timeout."""
    n = g.n
    color = [-1] * n
    for c, v in enumerate(clique):
        color[v] = c
    max_used = len(clique)

    def pick() -> int:
        best_v, best_key = -1, None
        for v in range(n):
            if color[v] >= 0:
                continue
            used = {color[w] for w in _bits(g.rows[v]) if color[w] >= 0}
            key = (-len(used), -g.degree(v), v)
            if best_key is None or key < best_key:
                best_v, best_key = v, key
        return best_v

    nodes = 0

    def solve(max_used: int):
        nonlocal nodes
        nodes += 1
        if nodes % 512 == 0 and time.monotonic() > t_end:
            return None
        v = pick()
        if v < 0:
            return True
        used = {color[w] for w in _bits(g.rows[v]) if color[w] >= 0}
        # allowing at most one brand-new color breaks color symmetry
        for c in range(min(max_used + 1, k)):
            if c in used:
                continue
            color[v] = c
            r = solve(max(max_used, c + 1))
            if r is True:
                return True
            if r is None:
                return None
            color[v] = -1
        return False

    r = solve(max_used)
    if r is True:
        return list(color)
    return r  # False or None


def chromatic_number(
    g: Graph,
    budget: float = DEFAULT_BUDGET,
    normal_cayley_alpha: int | None = None,
    exact_limit: int = 64,
) -> ChromaticResult:
    """Exact chi for small graphs, the normal-Cayley theorem route, or a bracket."""
    t_end = time.monotonic() + budget
    omega_res = max_clique(g, budget=max(1.0, budget / 4))
    lo = omega_res.size
    up, coloring = greedy_coloring(g)
    if normal_cayley_alpha is not None and omega_res.exact:
        if normal_cayley_alpha * omega_res.size == g.n:
            return ChromaticResult(lo, lo, True, "normal-cayley")
    if lo == up:
        return ChromaticResult(lo, up, True, "greedy-met-clique", coloring)
    if g.n > exact_limit:
        return ChromaticResult(lo, up, False, "bracket", coloring)
    k = lo
    while k < up:
        r = _k_colorable(g, k, omega_res.witness, t_end)
        if r is None:
            return ChromaticResult(k, up, False, "budget", coloring)
        if r is not False:
            return ChromaticResult(k, k, True, "branch-and-bound", r)
        k += 1
    return ChromaticResult(up, up, True, "branch-and-bound", coloring)


@dataclass
class CoverResult:
    size: int
    cover: list[list[int]]
    exact: bool
    route: str


def clique_cover(
    g: Graph,
    hint: list[list[int]] | None = None,
    lower_bound: int | None = None,
    budget: float = DEFAULT_BUDGET,
    exact_limit: int = 64,
) -> CoverResult:
    """Minimum clique cover, or a verified structural hint.

    A hint must cover every vertex with cliques; its size is returned and
    marked exact when it meets a known lower bound (alpha, or n/omega from a
    dimension argument, supplied by the caller).
    """
    if hint is not None:
        seen: set[int] = set()
        for block in hint:
            if not verify_clique(g, block):
                raise InvalidHintError(f"hint block {block} is not a clique")
            seen.update(block)
        if seen != set(range(g.n)):
            raise InvalidHintError("hint does not cover every vertex")
        exact = lower_bound is not None and len(hint) <= lower_bound
        return CoverResult(len(hint), [sorted(b) for b in hint], exact, "hint")
    comp = g.complement()
    if g.n <= exact_limit:
        chi = chromatic_number(comp, budget=budget, exact_limit=exact_limit)
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


def _simplex_max(rows: list[list[Fraction]], n_vars: int) -> tuple[Fraction, list[Fraction]]:
    """Exact simplex for max 1.x s.t. Ax <= 1, x >= 0 (A is 0/1).

    Dantzig pivoting (most negative reduced cost) for speed, switching to
    Bland's rule after a pivot-count threshold to guarantee termination.
    """
    m = len(rows)
    width = n_vars + m + 1
    tab = []
    for i, r in enumerate(rows):
        row = r + [Fraction(0)] * m + [Fraction(1)]
        row[n_vars + i] = Fraction(1)
        tab.append(row)
    obj = [Fraction(-1)] * n_vars + [Fraction(0)] * (m + 1)
    basis = [n_vars + i for i in range(m)]
    pivots = 0
    bland_after = 4 * (m + n_vars)
    while True:
        if pivots < bland_after:
            enter, val = None, Fraction(0)
            for j in range(width - 1):
                if obj[j] < val:
                    enter, val = j, obj[j]
        else:
            enter = next((j for j in range(width - 1) if obj[j] < 0), None)
        if enter is None:
            break
        ratio_best, leave = None, None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if ratio_best is None or ratio < ratio_best or (
                    ratio == ratio_best and basis[i] < basis[leave]
                ):
                    ratio_best, leave = ratio, i
        if leave is None:
            raise ArithmeticError("LP unbounded; packing LP should be bounded")
        piv = tab[leave][enter]
        if piv != 1:
            tab[leave] = [v / piv for v in tab[leave]]
        pivot_row = tab[leave]
        for i in range(m):
            f = tab[i][enter]
            if i != leave and f:
                tab[i] = [a - f * b for a, b in zip(tab[i], pivot_row)]
        if obj[enter]:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, pivot_row)]
        basis[leave] = enter
        pivots += 1
    x = [Fraction(0)] * n_vars
    for i, b in enumerate(basis):
        if b < n_vars:
            x[b] = tab[i][-1]
    return sum(x, Fraction(0)), x


def fractional_packing(
    g: Graph, max_vertices: int = 200, clique_limit: int = 200_000
) -> tuple[Fraction, list[Fraction]]:
    """alpha*(g): max sum x_v with sum over each maximal clique <= 1, exactly."""
    if g.n > max_vertices:
        raise BudgetExceededError(f"fractional packing capped at {max_vertices} vertices")
    cliques = maximal_cliques(g, limit=clique_limit)
    rows = []
    for mask in cliques:
        row = [Fraction(1) if mask >> v & 1 else Fraction(0) for v in range(g.n)]
        rows.append(row)
    if not rows:
        return Fraction(0), []
    return _simplex_max(rows, g.n)


# ---------------------------------------------------------------------------
# Lovasz theta (ADMM with dual certificate)
# ---------------------------------------------------------------------------

@dataclass
class ThetaResult:
    value: float
    lower: float
    upper: float
    iterations: int
    converged: bool

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    @property
    def status(self) -> str:
        return "tolerance" if self.converged else "no-convergence"


def lovasz_theta(
    g: Graph,
    tol: float = 1e-6,
    max_iter: int = 100_000,
    max_vertices: int = 200,
    check_every: int = 250,
) -> ThetaResult:
    """theta(g) via the SDP max <J,X>, Tr X = 1, X_ij = 0 on edges, X >= 0.

    Alternating projections (ADMM splitting) between the affine constraints
    and the PSD cone.  The scaled dual variable yields an edge-supported Y
    with the rigorous bound theta <= lambda_max(J - Y); a PSD mixture with
    I/n gives a feasible primal, so the returned bracket is certified
    regardless of how far the iteration converged.
    """
    n = g.n
    if n == 0:
        return ThetaResult(0.0, 0.0, 0.0, 0, True)
    if n > max_vertices:
        raise BudgetExceededError(f"theta SDP capped at {max_vertices} vertices")
    edges = g.edges()
    ei = np.array([e[0] for e in edges], dtype=int)
    ej = np.array([e[1] for e in edges], dtype=int)
    J = np.ones((n, n))

    def proj_affine(M: np.ndarray) -> np.ndarray:
        M = 0.5 * (M + M.T)
        if len(ei):
            M[ei, ej] = 0.0
            M[ej, ei] = 0.0
        M[np.diag_indices(n)] += (1.0 - np.trace(M)) / n
        return M

    def certify(U: np.ndarray, Z: np.ndarray, rho: float) -> tuple[float, float]:
        S = -rho * U  # dual PSD slack S = tI + Y - J
        A = np.ones((n, n))
        if len(ei):
            A[ei, ej] = -S[ei, ej]
            A[ej, ei] = -S[ej, ei]
        upper = float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1])
        Xf = proj_affine(Z.copy())
        lam_min = float(np.linalg.eigvalsh(0.5 * (Xf + Xf.T))[0])
        mix = max(0.0, -lam_min)
        Xhat = (Xf + mix * np.eye(n)) / (1.0 + mix * n)
        lower = float(np.sum(Xhat))
        return lower, upper

    rho = 1.0
    Z = np.eye(n) / n
    U = np.zeros((n, n))
    best = (-np.inf, np.inf)
    it = 0
    res_tol = max(tol * 1e-2, 1e-12)
    for it in range(1, max_iter + 1):
        X = proj_affine(Z - U + J / rho)
        W = X + U
        w, V = np.linalg.eigh(W)
        Zn = (V * np.maximum(w, 0.0)) @ V.T
        r = float(np.linalg.norm(X - Zn))
        s = float(rho * np.linalg.norm(Zn - Z))
        Z = Zn
        U = U + X - Zn
        if it % check_every == 0 or (r < res_tol and s < res_tol):
            lo, up = certify(U, Z, rho)
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
    lo, up = certify(U, Z, rho)
    best = (max(best[0], lo), min(best[1], up))
    return ThetaResult(0.5 * (best[0] + best[1]), best[0], best[1], it, False)


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
    normal_cayley_alpha_hint: bool = False,
    theta_cap: int = 200,
    packing_cap: int = 200,
) -> InvariantReport:
    """Assemble the alpha/omega/chi/chibar/alpha*/theta report for one graph."""
    rep = InvariantReport(graph_id, g.n)
    alpha = independence_number(g, budget)
    rep.set("alpha", alpha.size, alpha.status, witness=list(alpha.witness))
    om = max_clique(g, budget)
    rep.set("omega", om.size, om.status, witness=list(om.witness))
    chi = chromatic_number(
        g,
        budget,
        normal_cayley_alpha=alpha.size if (normal_cayley_alpha_hint and alpha.exact) else None,
    )
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
    cover = clique_cover(g, hint=cover_hint, lower_bound=lower, budget=budget)
    rep.set("clique_cover", cover.size, "exact" if cover.exact else "bounded", route=cover.route)
    try:
        astar, _ = fractional_packing(g, max_vertices=packing_cap)
        rep.set("alpha_star", astar, "exact")
    except BudgetExceededError:
        rep.set("alpha_star", None, "skipped")
    if g.n <= theta_cap:
        th = lovasz_theta(g, tol=tol, max_vertices=theta_cap)
        rep.set("theta", th.value, th.status, gap=th.gap, lower=th.lower, upper=th.upper)
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


def brute_chi(g: Graph) -> int:
    from itertools import product

    for k in range(1, g.n + 1):
        for assign in product(range(k), repeat=g.n):
            if all(assign[i] != assign[j] for i, j in g.edges()):
                return k
    return g.n


def brute_chibar(g: Graph) -> int:
    return brute_chi(g.complement())
