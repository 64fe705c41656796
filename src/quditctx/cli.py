"""Command-line frontend: family counts, graph invariants, CHSH rows,
Peres-Mermin and KCBS records, and graph exports.

Every run emits machine-readable output (json/csv/table) with a
schema_version field and a per-value solver status; budget exhaustion is
reported in-band with exit code 0, nonzero exit codes are reserved for
invalid input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .bell import (
    alternate_chsh_scenario,
    chsh_scenario,
    kcbs_scenario,
    peres_mermin,
    regularity_conjecture_check,
)
from .clifford import is_conjugation_closed, traceless_set
from .errors import QuditCtxError
from .graphs import automorphism_count, orthogonality_graph
from .invariants import compute_report, induced_odd_cycles, lovasz_theta
from .states import enumerate_single, enumerate_two_qudit, family_counts, group_tables
from .zmod import require_prime

SCHEMA_VERSION = 2

FAMILY_NAMES = {
    "single": "single",
    "sep": "separable",
    "ent": "entangled",
    "tot": "total",
}


def build_family(d: int, family: str):
    kind = FAMILY_NAMES[family]
    if kind == "single":
        return enumerate_single(d)
    return enumerate_two_qudit(d, kind)


def cover_hint_by_basis(fam) -> list[list[int]]:
    """Group states by the unsigned part of their stabilizer subspace; each
    group is an orthonormal basis, hence a clique of the orthogonality graph."""
    key_idx, _ = group_tables(fam.states)
    blocks: dict[bytes, list[int]] = {}
    for i, keys in enumerate(np.sort(key_idx, axis=1)):
        blocks.setdefault(keys.tobytes(), []).append(i)
    return sorted(blocks.values())


def _emit(payload: dict, config) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    fmt = config.format
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable)
    elif fmt == "csv":
        text = _to_csv(payload)
    else:
        text = _to_table(payload)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _jsonable(o):
    if isinstance(o, Fraction):
        return {"num": o.numerator, "den": o.denominator}
    if isinstance(o, (set, frozenset, tuple)):
        return list(o)
    raise TypeError(f"cannot serialize {type(o)}")


def _flatten(payload: dict, prefix: str = "") -> list[tuple[str, str]]:
    rows = []
    for key in sorted(payload):
        val = payload[key]
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            rows.extend(_flatten(val, name + "."))
        elif isinstance(val, Fraction):
            rows.append((name, f"{val.numerator}/{val.denominator}"))
        elif isinstance(val, (list, tuple)):
            rows.append((name, " ".join(str(v) for v in val)))
        else:
            rows.append((name, str(val)))
    return rows


def _to_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["field", "value"])
    writer.writerows(_flatten(payload))
    return buf.getvalue().rstrip("\n")


def _to_table(payload: dict) -> str:
    rows = _flatten(payload)
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_counts(config) -> dict:
    d = config.dimension
    counts = family_counts(d)
    payload = {
        "command": "counts",
        "dimension": d,
        "separable": counts["separable"],
        "entangled": counts["entangled"],
        "total": counts["total"],
        "status": "exact",
    }
    if config.verify:
        for family in ("separable", "entangled", "total"):
            fam = enumerate_two_qudit(d, family)
            if len(fam) != counts[family]:
                payload["status"] = f"mismatch in {family}"
    return payload


def cmd_invariants(config) -> dict:
    d = config.dimension
    fam = build_family(d, config.family)
    graph = orthogonality_graph(fam)
    hint = cover_hint_by_basis(fam)
    normal_cayley = False
    if config.family == "ent" and d > 2:
        # the chi = omega shortcut needs the connection set closed under
        # conjugation (normal Cayley graph); verify rather than assume
        normal_cayley = is_conjugation_closed(traceless_set(d))
    report = compute_report(
        graph,
        graph_id=f"{config.family}-d{d}",
        budget=config.budget_seconds,
        tol=config.tolerance,
        hilbert_dim=d if config.family == "single" else d * d,
        cover_hint=hint,
        normal_cayley=normal_cayley,
        theta_cap=config.theta_cap,
    )
    payload = {"command": "invariants", "dimension": d, "family": config.family,
               "n": graph.n}
    payload.update(json.loads(report.to_json()))
    return payload


def cmd_chsh(config) -> dict:
    d = config.dimension
    sc = chsh_scenario(d, alpha_budget=config.budget_seconds)
    payload = {
        "command": "chsh",
        "dimension": d,
        "order": {"value": sc.graph.n, "status": "exact"},
        "regularity": {"value": sc.graph.is_regular(), "status": "exact"},
        "regularity_conjecture": regularity_conjecture_check(sc),
        "alpha": {"value": sc.nchv_bound.size, "status": sc.nchv_bound.status},
        "lambda_max": {"value": round(sc.qm_value, 6), "status": "tolerance"},
        "bell_bound_from_alpha": d * sc.nchv_bound.size - d * d,
    }
    if sc.graph.n <= config.theta_cap:
        th = lovasz_theta(sc.graph, tol=config.tolerance, max_vertices=config.theta_cap)
        sc.theta_bound = th.value
        payload["theta"] = {
            "value": round(th.value, 6),
            "gap": th.gap,
            "status": th.status,
        }
    else:
        payload["theta"] = {"value": None, "status": "skipped"}
    cycles = induced_odd_cycles(sc.graph, config.k_max, budget=config.budget_seconds)
    payload["induced_odd_cycles"] = {
        str(k): {"status": w.status, "kind": w.kind, "witness": list(w.vertices)}
        for k, w in cycles.items()
    }
    if sc.graph.n <= 30:
        payload["automorphism_order_hint"] = automorphism_count(sc.graph)
    return payload


def cmd_pm(config) -> dict:
    rec = peres_mermin()
    return {
        "command": "pm",
        "row_product_deviation": rec.row_product_dev,
        "col_product_deviation": rec.col_product_dev,
        "consistent_assignments": rec.consistent_assignments,
        "contradiction_verified": rec.consistent_assignments == 0,
        "projector_count": len(rec.projectors),
        "equivalent_to_entangled_graph": rec.equivalent_to_entangled_graph,
        "status": "exact",
    }


def cmd_kcbs(config) -> dict:
    sc = kcbs_scenario()
    th = lovasz_theta(sc.graph, tol=config.tolerance)
    return {
        "command": "kcbs",
        "alpha": {"value": sc.nchv_bound.size, "status": sc.nchv_bound.status},
        "lambda_max": {"value": round(sc.qm_value, 9), "status": "tolerance"},
        "theta": {"value": round(th.value, 9), "gap": th.gap, "status": th.status},
    }


def cmd_alt_chsh(config) -> dict:
    rec = alternate_chsh_scenario()
    return {
        "command": "alt-chsh",
        "identity_deviation": rec.identity_dev,
        "pan_complement": rec.pan_complement_bijection is not None,
        "alpha": {"value": rec.scenario.nchv_bound.size,
                  "status": rec.scenario.nchv_bound.status},
        "projectors": [lab[0] for lab in rec.scenario.projector_labels],
    }


def cmd_export(config) -> dict:
    d = config.dimension
    if config.scenario == "chsh":
        graph = chsh_scenario(d, alpha_budget=1.0).graph
        name = f"chsh-d{d}"
    else:
        fam = build_family(d, config.family)
        graph = orthogonality_graph(fam)
        name = f"{config.family}-d{d}"
    out = config.out or f"{name}.{'dimacs' if config.format == 'dimacs' else 'json'}"
    text = graph.to_dimacs() if config.format == "dimacs" else graph.to_json()
    with open(out, "w") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")
    payload = {
        "command": "export",
        "graph": name,
        "n": graph.n,
        "edges": graph.edge_count(),
        "path": out,
        "format": config.format,
    }
    print(json.dumps({"schema_version": SCHEMA_VERSION, **payload}, sort_keys=True))
    return payload


# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditctx",
        description="Qudit stabilizer contextuality graphs and their invariants",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dimension", "-d", type=int, default=3,
                        help="prime qudit dimension")
    common.add_argument("--family", choices=sorted(FAMILY_NAMES), default="ent")
    common.add_argument("--budget-seconds", type=float, default=60.0,
                        dest="budget_seconds")
    common.add_argument("--tolerance", type=float, default=1e-6)
    common.add_argument("--format", choices=["table", "json", "csv", "dimacs"],
                        default="json")
    common.add_argument("--out", default=None)
    common.add_argument("--theta-cap", type=int, default=200, dest="theta_cap",
                        help="largest vertex count passed to the theta SDP")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("counts", parents=[common]).add_argument(
        "--verify", action="store_true", help="re-enumerate families and compare"
    )
    sub.add_parser("invariants", parents=[common])
    chsh = sub.add_parser("chsh", parents=[common])
    chsh.add_argument("--k-max", type=int, default=4, dest="k_max",
                      help="largest k for induced C_{2k+1} search")
    sub.add_parser("pm", parents=[common])
    sub.add_parser("kcbs", parents=[common])
    sub.add_parser("alt-chsh", parents=[common])
    sub.add_parser("export", parents=[common]).add_argument(
        "--scenario", choices=["family", "chsh"], default="family"
    )
    return parser


HANDLERS = {
    "counts": cmd_counts,
    "invariants": cmd_invariants,
    "chsh": cmd_chsh,
    "pm": cmd_pm,
    "kcbs": cmd_kcbs,
    "alt-chsh": cmd_alt_chsh,
    "export": cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    config = parser.parse_args(argv)
    try:
        require_prime(config.dimension)
        if not 0 < config.tolerance < 1e-1:
            raise QuditCtxError("tolerance must lie in (0, 0.1)")
        if not (math.isfinite(config.budget_seconds) and config.budget_seconds > 0):
            raise QuditCtxError("budget must be a positive finite number of seconds")
        if config.theta_cap <= 0:
            raise QuditCtxError("theta cap must be positive")
        if getattr(config, "k_max", 1) <= 0:
            raise QuditCtxError("k-max must be positive")
        if config.format == "dimacs" and config.command != "export":
            raise QuditCtxError("--format dimacs applies only to the export command")
        payload = HANDLERS[config.command](config)
    except QuditCtxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.command != "export":
        _emit(payload, config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
