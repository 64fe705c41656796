"""Reference checks for the benchmark's quditctx jobs.

Every value checked here is one the repository already pins: the Table 1
family sizes, the Table 2 independence numbers, the Table 3 clique covers
and the Table 4 CHSH rows of ``tests/test_acceptance.py``, KCBS theta =
sqrt(5) and the Peres-Mermin contradiction.  A field reported ``bounded``
must be consistent with the known value instead of equal to it.
"""

from __future__ import annotations

import json
import math

TABLE4 = {
    3: {"alpha": 6, "lmax": 6.412, "theta": 7.098},
    5: {"alpha": 12, "lmax": 13.090, "theta": 18.090},
    7: {"alpha": 19, "lmax": 19.411},
}

# Table 2 alpha for the two-qudit families; a single qudit's d+1 bases give d+1
ALPHA = {
    ("sep", 2): 9, ("sep", 3): 16, ("sep", 5): 36,
    ("ent", 2): 5, ("ent", 3): 24, ("ent", 5): 120,
    ("tot", 2): 12, ("tot", 3): 40,
}

# statuses that carry a certificate: a solver that closed, a converged
# bracket, or a verified cycle witness / finished cycle search
CERTIFIED = {"exact", "tolerance", "found", "absent"}


def family_size(family: str, d: int) -> int:
    return {
        "single": d * (d + 1),
        "sep": (d * (d + 1)) ** 2,
        "ent": d**3 * (d * d - 1),
        "tot": d * d * (d * d + 1) * (d + 1),
    }[family]


def cover_size(family: str, d: int) -> int:
    return {
        "single": d + 1,
        "sep": (d + 1) ** 2,
        "ent": d * (d * d - 1),
        "tot": (d * d + 1) * (d + 1),
    }[family]


def field_statuses(payload: dict) -> list[str]:
    """Statuses of the payload itself, its fields and their sub-fields."""
    out = []
    if isinstance(payload.get("status"), str):
        out.append(payload["status"])
    for val in payload.values():
        if not isinstance(val, dict):
            continue
        if isinstance(val.get("status"), str):
            out.append(val["status"])
        out.extend(v["status"] for v in val.values()
                   if isinstance(v, dict) and isinstance(v.get("status"), str))
    return out


def _flag(args: list[str], name: str, default=None):
    return args[args.index(name) + 1] if name in args else default


def _consistent(field: dict, known: int, bounded_ok) -> bool:
    """An exact field equals the known value; any other passes bounded_ok."""
    if field["status"] == "exact":
        return field["value"] == known
    return bounded_ok(field["value"])


def check_invariants(p: dict, d: int, family: str) -> list[str]:
    bad = []
    n = family_size(family, d)
    dim = d if family == "single" else d * d
    alpha_ref = d + 1 if family == "single" else ALPHA[(family, d)]
    cover_ref = cover_size(family, d)
    if p["n"] != n:
        bad.append(f"n={p['n']}, expected {n}")
    a = p["alpha"]
    if not _consistent(a, alpha_ref, lambda v: v <= alpha_ref):
        bad.append(f"alpha {a['status']} {a['value']}, known {alpha_ref}")
    om = p["omega"]
    if not _consistent(om, dim, lambda v: v <= dim):
        bad.append(f"omega {om['status']} {om['value']}, Hilbert dimension {dim}")
    # chi >= max(omega, n/alpha); a bracket must still reach that value
    chi_floor = max(min(om["value"], dim), -(-n // alpha_ref))
    chi = p["chi"]
    lo, up = (chi["value"], chi["value"]) if chi["status"] == "exact" else chi["value"]
    if lo > up or up < chi_floor:
        bad.append(f"chi {chi['status']} {chi['value']} misses the floor {chi_floor}")
    cov = p["clique_cover"]
    if not _consistent(cov, cover_ref, lambda v: v >= cover_ref):
        bad.append(f"clique cover {cov['status']} {cov['value']}, known {cover_ref}")
    # sandwich alpha <= theta <= alpha* <= chibar, where computed
    if p["alpha_star"]["status"] == "exact":
        astar = p["alpha_star"]["value"]["num"] / p["alpha_star"]["value"]["den"]
        if not alpha_ref <= astar <= cover_ref:
            bad.append(f"alpha* {astar} outside [{alpha_ref}, {cover_ref}]")
    th = p["theta"]
    if th["status"] == "tolerance" and not alpha_ref - 1e-4 <= th["value"] <= cover_ref + 1e-4:
        bad.append(f"theta {th['value']} outside [{alpha_ref}, {cover_ref}]")
    if "sic_flag" in p and chi["status"] == "exact" and p["sic_flag"]["value"] != (lo > dim):
        bad.append("sic_flag disagrees with chi")
    return bad


def check_chsh(p: dict, d: int) -> list[str]:
    bad = []
    row = TABLE4[d]
    if p["order"]["value"] != d**3:
        bad.append(f"order {p['order']['value']}")
    if p["regularity"]["value"] != (2 * d - 1) * (d - 1) or p["regularity_conjecture"] is not True:
        bad.append(f"regularity {p['regularity']['value']}")
    a = p["alpha"]
    if not _consistent(a, row["alpha"], lambda v: v <= row["alpha"]):
        bad.append(f"alpha {a['status']} {a['value']}, known {row['alpha']}")
    if p["bell_bound_from_alpha"] != d * a["value"] - d * d:
        bad.append("bell bound is not d*alpha - d^2")
    if abs(p["lambda_max"]["value"] - row["lmax"]) >= 1e-3:
        bad.append(f"lambda_max {p['lambda_max']['value']}, Table 4 {row['lmax']}")
    th = p["theta"]
    if "theta" in row and (th["status"] != "tolerance" or abs(th["value"] - row["theta"]) >= 1e-3):
        bad.append(f"theta {th['status']} {th['value']}, Table 4 {row['theta']}")
    for k, w in p["induced_odd_cycles"].items():
        if w["status"] == "found" and len(w["witness"]) != 2 * int(k) + 1:
            bad.append(f"odd cycle witness for k={k} has {len(w['witness'])} vertices")
    return bad


def check_job(args: list[str], stdout: str, export_text: str | None) -> tuple[list[str], list[str]]:
    """(problems, field statuses) for one job's output."""
    cmd = args[0]
    d = int(_flag(args, "-d", 3))
    if cmd == "export":
        p = json.loads(stdout.strip().splitlines()[-1])
        n = family_size(_flag(args, "--family"), d)
        text = export_text or ""
        header = text.split("\n", 1)[0].split()
        edges = sum(1 for ln in text.splitlines() if ln.startswith("e "))
        bad = []
        if p["n"] != n or header != ["p", "edge", str(n), str(p["edges"])] or edges != p["edges"]:
            bad.append(f"export header {header}, {edges} edge lines, payload n={p['n']} edges={p['edges']}")
        return bad, field_statuses(p)
    p = json.loads(stdout)
    if cmd == "counts":
        bad = [f"{kind} count {p[kind]}" for kind, fam in
               (("separable", "sep"), ("entangled", "ent"), ("total", "tot"))
               if p[kind] != family_size(fam, d)]
        if p["status"] != "exact":
            bad.append(f"status {p['status']}")
    elif cmd == "invariants":
        bad = check_invariants(p, d, _flag(args, "--family", "ent"))
    elif cmd == "chsh":
        bad = check_chsh(p, d)
    elif cmd == "pm":
        ok = (p["contradiction_verified"] is True and p["consistent_assignments"] == 0
              and p["projector_count"] == 24 and p["equivalent_to_entangled_graph"] is True
              and max(p["row_product_deviation"], p["col_product_deviation"]) < 1e-12)
        bad = [] if ok else ["Peres-Mermin contradiction not reproduced"]
    elif cmd == "kcbs":
        ok = (p["alpha"] == {"value": 2, "status": "exact"}
              and abs(p["theta"]["value"] - math.sqrt(5)) < 1e-5
              and abs(p["lambda_max"]["value"] - math.sqrt(5)) < 1e-6)
        bad = [] if ok else [f"KCBS alpha {p['alpha']}, theta {p['theta']}"]
    elif cmd == "alt-chsh":
        ok = (p["alpha"] == {"value": 2, "status": "exact"} and p["pan_complement"] is True
              and p["identity_deviation"] < 1e-9)
        bad = [] if ok else ["alternate CHSH record differs from the paper"]
    else:
        bad = [f"no reference for {cmd}"]
    return bad, field_statuses(p)
