import json

import pytest

from quditctx.cli import main
from quditctx.graphs import Graph


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize(
    "d,sep,ent,tot",
    [(2, 36, 24, 60), (3, 144, 216, 360), (5, 900, 3000, 3900)],
)
def test_counts_table1(capsys, d, sep, ent, tot):
    code, out = run(capsys, "counts", "-d", str(d))
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 2
    assert "seed" not in payload
    assert (payload["separable"], payload["entangled"], payload["total"]) == (
        sep,
        ent,
        tot,
    )


def test_counts_verify_flag(capsys):
    code, out = run(capsys, "counts", "-d", "2", "--verify")
    assert code == 0
    assert json.loads(out)["status"] == "exact"


def test_invariants_separable_qubits(capsys):
    code, out = run(capsys, "invariants", "-d", "2", "--family", "sep")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"]["value"] == 9
    assert payload["clique_cover"]["value"] == 9
    assert payload["clique_cover"]["status"] == "exact"
    assert payload["sic_flag"]["value"] is False


def test_invariants_entangled_qubits(capsys):
    code, out = run(capsys, "invariants", "-d", "2", "--family", "ent")
    payload = json.loads(out)
    assert payload["alpha"]["value"] == 5
    assert payload["chi"]["value"] == 5
    assert payload["clique_cover"]["value"] == 6
    assert payload["sic_flag"]["value"] is True


def test_chsh_row(capsys):
    code, out = run(capsys, "chsh", "-d", "2", "--k-max", "3")
    payload = json.loads(out)
    assert payload["order"] == {"value": 8, "status": "exact"}
    assert payload["regularity"]["value"] == 3
    assert payload["alpha"]["value"] == 3
    assert abs(payload["lambda_max"]["value"] - 3.414214) < 1e-5
    assert abs(payload["theta"]["value"] - 3.414214) < 1e-3
    assert payload["bell_bound_from_alpha"] == 2
    assert payload["induced_odd_cycles"]["2"]["status"] == "found"
    assert payload["induced_odd_cycles"]["3"]["status"] == "absent"


def test_pm_command(capsys):
    code, out = run(capsys, "pm")
    payload = json.loads(out)
    assert code == 0
    assert payload["contradiction_verified"] is True
    assert payload["equivalent_to_entangled_graph"] is True
    assert payload["projector_count"] == 24


def test_kcbs_command(capsys):
    code, out = run(capsys, "kcbs")
    payload = json.loads(out)
    assert payload["alpha"]["value"] == 2
    assert abs(payload["lambda_max"]["value"] - 5**0.5) < 1e-6


def test_export_dimacs(tmp_path, capsys):
    out_file = tmp_path / "chsh2.dimacs"
    code, _ = run(
        capsys, "export", "-d", "2", "--scenario", "chsh",
        "--format", "dimacs", "--out", str(out_file),
    )
    assert code == 0
    g = Graph.from_dimacs(out_file.read_text())
    assert g.n == 8 and g.edge_count() == 12


def test_export_json(tmp_path, capsys):
    out_file = tmp_path / "single3.json"
    code, _ = run(
        capsys, "export", "-d", "3", "--family", "single",
        "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["n"] == 12 and len(payload["edges"]) == 12


def test_invalid_dimension_exit_code(capsys):
    code = main(["counts", "-d", "4"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_invalid_tolerance_exit_code(capsys):
    code = main(["kcbs", "--tolerance", "0.5"])
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_invalid_budget_exit_code(capsys, value):
    code = main(["chsh", "-d", "2", "--budget-seconds", value])
    assert code == 2
    assert "budget must be a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_invalid_k_max_exit_code(capsys, value):
    code = main(["chsh", "-d", "2", "--k-max", value])
    assert code == 2
    assert "k-max must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_invalid_theta_cap_exit_code(capsys, value):
    code = main(["chsh", "-d", "2", "--theta-cap", value])
    assert code == 2
    assert "theta cap must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--jobs", "--seed"])
def test_jobs_flag_is_gone(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["counts", flag, "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["counts", "pm", "invariants"])
def test_dimacs_format_only_for_export(capsys, command):
    code = main([command, "-d", "2", "--format", "dimacs"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--format dimacs applies only to the export command" in captured.err


def test_deterministic_output(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _ = run(
            capsys, "invariants", "-d", "2", "--family", "single",
            "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_table_and_csv_formats(capsys):
    code, out = run(capsys, "counts", "-d", "3", "--format", "table")
    assert code == 0 and "separable" in out
    code, out = run(capsys, "counts", "-d", "3", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "field,value"
