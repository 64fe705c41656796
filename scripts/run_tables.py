#!/usr/bin/env python3
"""Reproduce the headline tables at desk scale and print them as text.

Table 1: orthogonality-graph orders (family counts).
Table 2: independence numbers.
Table 3: clique cover numbers (quantum value of Sigma).
Table 4: CHSH graph parameters.

Dimensions and budgets are chosen so the whole script runs in a few minutes.
The CHSH alpha comes from the deterministic strategies and the CHSH theta
from the LP over the graph's association scheme, at every d, d=7 included.
Pass --extended to also run the d=5 entangled and total independence
numbers by branch and bound.
"""

import argparse
import sys
import time

from quditctx.bell import chsh_scenario
from quditctx.cli import cover_hint_by_basis
from quditctx.graphs import orthogonality_graph
from quditctx.invariants import (
    clique_cover,
    independence_number,
    induced_odd_cycles,
    lovasz_theta,
)
from quditctx.states import enumerate_two_qudit, family_counts


def table1(dims):
    print("\nTable 1: orthogonality graph orders")
    print(f"{'d':>3} {'|sep|':>8} {'|ent|':>8} {'|tot|':>8}")
    for d in dims:
        c = family_counts(d)
        print(f"{d:>3} {c['separable']:>8} {c['entangled']:>8} {c['total']:>8}")


def tables_2_and_3(dims, budget):
    print("\nTables 2 and 3: alpha and clique cover per family")
    print(f"{'d':>3} {'family':>10} {'n':>6} {'alpha':>6} {'':>2} {'chibar':>6}")
    for d in dims:
        for kind in ("separable", "entangled", "total"):
            if kind == "total" and d > 3:
                # left out to keep the script short: `quditctx invariants -d 5
                # --family tot` closes alpha = 156 exact in about 20 s (2-core host)
                continue
            fam = enumerate_two_qudit(d, kind)
            g = orthogonality_graph(fam)
            alpha = independence_number(g, budget)
            hint = cover_hint_by_basis(fam)
            dd = d * d
            cover = clique_cover(g, hint=hint, lower_bound=-(-g.n // dd))
            mark = "" if alpha.exact else "*"
            print(
                f"{d:>3} {kind:>10} {g.n:>6} {alpha.size:>6}{mark:<2}"
                f"{cover.size:>6}"
            )


def table4(dims, budget, tol):
    print("\nTable 4: CHSH orthogonality graphs")
    header = f"{'d':>3} {'order':>6} {'reg':>5} {'alpha':>6} {'lmax':>9} {'theta':>9}  cycles"
    print(header)
    kmax = {2: 3, 3: 4, 5: 6, 7: 10}
    for d in dims:
        sc = chsh_scenario(d)
        mark = "" if sc.nchv_bound.exact else "*"
        th = lovasz_theta(sc.graph, tol=tol)
        cyc = induced_odd_cycles(sc.graph, kmax[d], budget=budget)
        ks = [str(k) for k in sorted(cyc) if cyc[k].status == "found"]
        print(
            f"{d:>3} {sc.graph.n:>6} {sc.graph.is_regular():>5} "
            f"{sc.nchv_bound.size:>5}{mark:<1} {sc.qm_value:9.4f} {th.value:9.4f} "
            f" k={','.join(ks)}"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget-seconds", type=float, default=60.0)
    parser.add_argument("--tolerance", type=float, default=1e-3)
    parser.add_argument("--extended", action="store_true",
                        help="also run the d=5 entangled and total alpha searches")
    args = parser.parse_args(argv)
    t0 = time.time()
    table1([2, 3, 5])
    tables_2_and_3([2, 3, 5], args.budget_seconds)
    table4([2, 3, 5, 7], args.budget_seconds, args.tolerance)
    if args.extended:
        print("\nExtended runs:")
        for kind, expect in (("entangled", 120), ("total", 156)):
            fam = enumerate_two_qudit(5, kind)
            g = orthogonality_graph(fam)
            res = independence_number(g, budget=6 * 3600.0)
            print(f"alpha({kind}, d=5) = {res.size} (exact={res.exact}, expect {expect})")
    print(f"\ndone in {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
