"""Run one quditctx CLI job with a span around each layer's public functions.

    python3 perfbench/traced.py SPANS_JSON -- <quditctx arguments>

The wrappers live here, not in the package.  The package imports names with
``from .x import y``, so each function is replaced in every quditctx module
that holds a reference to it, which is where its callers look it up.
Per-pair hot paths (``is_orthogonal``, ``StabilizerState.group``) stay
unwrapped: a span per call would cost more than the call, so their work is
derived from the graph instead (pairs, edges).

Spans are kept in memory and written to SPANS_JSON when the job ends.  The
CLI's standard output is left untouched, so its digest can be compared with
an untraced run of the same job.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, counters taken from the return value)
LAYERS = [
    ("states", "enumerate_two_qudit", lambda r: {"states": len(r)}),
    ("clifford", "traceless_set", None),
    ("clifford", "is_conjugation_closed", None),
    ("graphs", "orthogonality_graph",
     lambda r: {"pairs": r.n * (r.n - 1) // 2, "edges": r.edge_count()}),
    ("graphs", "Graph.complement", None),
    ("graphs", "Graph.to_dimacs", lambda r: {"bytes": len(r.encode())}),
    ("graphs", "automorphism_count", None),
    ("invariants", "max_clique",
     lambda r: {"nodes": r.nodes, "exact": int(r.exact),
                "bounded_nodes": 0 if r.exact else r.nodes,
                "bounded_s": 0.0 if r.exact else r.elapsed}),
    ("invariants", "independence_number", None),
    ("invariants", "compute_report", None),
    ("invariants", "chromatic_number", lambda r: {"exact": int(r.exact)}),
    ("invariants", "greedy_coloring", None),
    ("invariants", "clique_cover", None),
    ("invariants", "maximal_cliques", lambda r: {"count": len(r)}),
    ("invariants", "fractional_packing", None),
    ("invariants", "lovasz_theta",
     lambda r: {"iterations": r.iterations, "converged": int(r.converged)}),
    ("invariants", "induced_odd_cycles", None),
    ("bell", "chsh_scenario", None),
    ("bell", "chsh_operator", None),
    ("bell", "alternate_chsh_scenario", None),
    ("bell", "peres_mermin", None),
    ("bell", "kcbs_scenario", None),
]


class Tracer:
    """Spans of one job: [name, start, end, parent index, counters]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, fn, name: str, counters):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counters is not None:
                span[4] = counters(result)
            return result

        return traced

    def install(self) -> None:
        import quditctx.cli  # noqa: F401  (loads every module the CLI reaches)

        modules = [m for key, m in list(sys.modules.items())
                   if key == "quditctx" or key.startswith("quditctx.")]
        for short, attr, counters in LAYERS:
            mod = sys.modules[f"quditctx.{short}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), f"{short}.{meth}", counters))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(orig, f"{short}.{attr}", counters)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS_JSON -- <quditctx arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from quditctx.cli import main as cli_main

    try:
        code = cli_main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
