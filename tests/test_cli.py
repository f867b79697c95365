"""Exit codes, output formats, and catalog selection in the CLI."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ghg import cli
from ghg.fgab import FgAbGroup

GOLDEN_VERIFY = Path(__file__).resolve().parent / "golden_verify.json"

TINY = [
    {
        "name": "G",
        "connected": True,
        "rational_exponents": [1],
        "pi": [
            {"degree": 0, "rank": 0, "factors": [], "source": "fixture"},
            {"degree": 1, "rank": 1, "factors": [], "source": "fixture"},
            {"degree": 2, "rank": 0, "factors": [2], "source": "fixture"},
            {"degree": 3, "rank": 0, "factors": [], "source": "fixture"},
        ],
        "samelson": [{"n": 1, "m": 1, "values": [[[1]]]}],
    }
]


def tiny_catalog(tmp_path):
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(TINY), encoding="utf-8")
    return str(p)


def test_compute_resolved(capsys):
    code = cli.run(["compute", "--group", "SU2", "--base", "sphere:4", "--class", "6", "--degree", "2"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == "Z/6\n"
    assert out.err == ""


def test_compute_default_class_is_zero(capsys):
    code = cli.run(["compute", "--group", "SU2", "--base", "sphere:4", "--degree", "2"])
    assert code == 0
    assert capsys.readouterr().out == "Z/12\n"


def test_compute_ambiguous_text(capsys):
    code = cli.run(["compute", "--group", "TEST", "--base", "sphere:2", "--class", "2", "--degree", "2"])
    assert code == 0
    assert capsys.readouterr().out == "extension of Z/4 by Z/2; candidates: Z/2 + Z/4, Z/8\n"


def test_compute_json_roundtrip(capsys):
    argv = ["compute", "--group", "SU2", "--base", "sphere:4", "--class", "6",
            "--degree", "2", "--format", "json"]
    assert cli.run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["resolved"] is True
    got = doc["result"]
    # the name must be recomputable from rank and factors
    assert str(FgAbGroup.of(got["rank"], got["factors"])) == got["name"] == "Z/6"
    assert doc["base"] == "sphere:4" and doc["class"] == [6]


def test_compute_json_ambiguous(capsys):
    argv = ["compute", "--group", "TEST", "--base", "sphere:2", "--class", "2",
            "--degree", "2", "--format", "json"]
    assert cli.run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["resolved"] is False and "result" not in doc
    names = [c["name"] for c in doc["candidates"]]
    assert names == ["Z/2 + Z/4", "Z/8"]
    assert doc["sub"]["name"] == "Z/2" and doc["quot"]["name"] == "Z/4"


def test_output_is_deterministic(capsys):
    argv = ["compute", "--group", "SU2", "--base", "sphere:4", "--class", "5",
            "--degree", "2", "--format", "json"]
    cli.run(argv)
    first = capsys.readouterr().out
    cli.run(argv)
    assert capsys.readouterr().out == first


def test_rational_text(capsys):
    code = cli.run(["rational", "--group", "SU2", "--base", "surface:2", "--degree", "2"])
    assert code == 0
    assert capsys.readouterr().out == "Q^4\n"
    code = cli.run(["rational", "--group", "TEST", "--base", "surface:2", "--degree", "2"])
    assert code == 0
    assert capsys.readouterr().out == "Q^4\n"


def test_rational_json(capsys):
    code = cli.run(["rational", "--group", "SU2", "--base", "sphere:4",
                    "--degree", "3", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 1 and doc["name"] == "Q^1"


def test_rational_needs_no_class_group_past_the_table(capsys):
    """SU2's table ends at pi_12, so sphere:14 has no catalogued class
    group; the rational answer dim pi_17 + dim pi_3 never reads it."""
    args = ["rational", "--group", "SU2", "--base", "sphere:14", "--degree", "3"]
    assert cli.run(args) == 0
    assert capsys.readouterr().out == "Q^1\n"
    assert cli.run(args + ["--class", "0"]) == 2
    assert "ends at degree 12" in capsys.readouterr().err


def test_degree_zero_is_usage_error(capsys):
    code = cli.run(["compute", "--group", "SU2", "--base", "sphere:4", "--degree", "0"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_rational_degree_below_one_is_usage_error(capsys, degree):
    assert cli.run(["rational", "--group", "SU2", "--base", "sphere:4", "--degree", degree]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_required_flag(capsys):
    assert cli.run(["compute", "--group", "SU2", "--degree", "2"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_no_command(capsys):
    assert cli.run([]) == 1


def test_unknown_command(capsys):
    assert cli.run(["frobnicate"]) == 1


@pytest.mark.parametrize("base", ["disk:3", "sphere", "sphere:x", "sphere:0", "surface:-1"])
def test_bad_base(base, capsys):
    code = cli.run(["compute", "--group", "SU2", "--base", base, "--degree", "2"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_bad_class_count(capsys):
    code = cli.run(["compute", "--group", "TEST", "--base", "sphere:2",
                    "--class", "1,2", "--degree", "1"])
    assert code == 1
    assert "coordinate" in capsys.readouterr().err


def test_bad_class_value(capsys):
    code = cli.run(["compute", "--group", "SU2", "--base", "sphere:4",
                    "--class", "x", "--degree", "2"])
    assert code == 1


def test_single_int_class_for_trivial_group(capsys):
    # pi_1(SU2) = 0, so any single integer names the only class
    code = cli.run(["compute", "--group", "SU2", "--base", "sphere:2",
                    "--class", "7", "--degree", "1"])
    assert code == 0
    assert capsys.readouterr().out == "Z^1\n"


def test_unknown_group_exit(capsys):
    code = cli.run(["compute", "--group", "NOPE", "--base", "sphere:4", "--degree", "2"])
    assert code == 2
    assert "compute" in capsys.readouterr().err


def test_table_depth_exit(capsys):
    code = cli.run(["compute", "--group", "SU2", "--base", "sphere:4",
                    "--class", "1", "--degree", "9"])
    assert code == 2
    assert "ends at degree 12" in capsys.readouterr().err


def test_missing_pairing_exit(capsys):
    code = cli.run(["compute", "--group", "SU2", "--base", "sphere:4",
                    "--class", "1", "--degree", "3"])
    assert code == 2
    assert "not catalogued" in capsys.readouterr().err


def test_torsion_bound_exit(capsys):
    code = cli.run(["compute", "--group", "TEST", "--base", "sphere:2",
                    "--class", "2", "--degree", "2", "--torsion-bound", "7"])
    assert code == 2
    assert "exceeds the bound 7" in capsys.readouterr().err


def test_high_genus_torsion_bound_exit(capsys):
    """(Z/2)^40000 joins sub at genus 20000: its order has 12,042 digits,
    past the int-to-str digit limit, so the refusal must not print it."""
    code = cli.run(["compute", "--group", "TEST", "--base", "surface:20000",
                    "--degree", "2", "--class", "1"])
    assert code == 2
    assert capsys.readouterr().err == "ghg: compute: extension torsion order exceeds the bound 10000\n"


def test_negative_torsion_bound_is_usage_error(capsys):
    code = cli.run(["compute", "--group", "SU2", "--base", "sphere:4",
                    "--class", "0", "--degree", "2", "--torsion-bound", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "usage error: torsion bound must be nonnegative" in captured.err


def test_catalog_listing(capsys):
    assert cli.run(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "SU2: depth 12; exponents [3]; pairings (3,3)" in out
    assert "SU3" in out and "U1" in out


def test_catalog_json(capsys):
    assert cli.run(["catalog", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = [e["name"] for e in doc["entries"]]
    assert "SU2" in names and doc["path"].endswith("catalog.json")
    su2 = next(e for e in doc["entries"] if e["name"] == "SU2")
    assert su2["depth"] == 12 and su2["pairings"] == [[3, 3]]


def test_catalog_flag_overrides(tmp_path, capsys, monkeypatch):
    path = tiny_catalog(tmp_path)
    monkeypatch.setenv("GHG_CATALOG", str(tmp_path / "missing.json"))
    # the explicit flag wins even when the env var points nowhere
    assert cli.run(["catalog", "--catalog", path]) == 0
    assert capsys.readouterr().out.startswith("G: depth 3")


def test_catalog_env_var(tmp_path, capsys, monkeypatch):
    """Genus 1, class 1: the kernel of delta_1 is 2Z and delta_2 dies
    against the trivial pi_3, leaving Z + coker = Z + (Z/2)^2."""
    monkeypatch.setenv("GHG_CATALOG", tiny_catalog(tmp_path))
    assert cli.run(["compute", "--group", "G", "--base", "surface:1",
                    "--class", "1", "--degree", "1"]) == 0
    out = capsys.readouterr().out
    assert out == "Z^1 + Z/2 + Z/2\n"


def test_broken_catalog_exit(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{nope", encoding="utf-8")
    code = cli.run(["catalog", "--catalog", str(p)])
    assert code == 2
    assert "catalog" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    pytest.param("[" * 100000 + "]" * 100000, id="deep-nesting"),
    pytest.param(json.dumps(TINY).replace('"degree": 3', '"degree": ' + "9" * 5000), id="huge-int"),
])
def test_malformed_catalog_exit(tmp_path, capsys, text):
    p = tmp_path / "malformed.json"
    p.write_text(text, encoding="utf-8")
    code = cli.run(["catalog", "--catalog", str(p)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ghg: catalog:")
    # both are valid JSON, and a CLI user cannot raise the digit limit
    assert "not valid JSON" not in err and "set_int_max_str_digits" not in err


def test_verify_passes(capsys):
    """The report at the shipped seed replays tests/golden_verify.json
    byte for byte: every check passes with the same detail text."""
    code = cli.run(["verify", "--format", "json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] == doc["total"] >= 10
    assert all(c["passed"] for c in doc["checks"])
    assert out == GOLDEN_VERIFY.read_text(encoding="utf-8")


def test_verify_fails_on_foreign_catalog(tmp_path, capsys):
    # catalog-independent checks pass, the anchored ones cannot
    code = cli.run(["verify", "--catalog", tiny_catalog(tmp_path)])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL su2_gcd_table" in out
    assert "PASS snf_random_suite" in out
    code = cli.run(["verify", "--catalog", tiny_catalog(tmp_path), "--format", "json"])
    checks = {c["name"]: c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert code == 3
    assert checks["su2_gcd_table"] is False and checks["snf_random_suite"] is True


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        cli.run(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("ghg ")


def test_cli_import_stays_light():
    """A cold `ghg compute` pays for every module `ghg.cli` pulls in:
    dataclasses alone brings inspect, ast, dis and tokenize. ghg.verify
    stays eagerly imported, since the benchmark reads it from sys.modules
    right after importing ghg.cli. The package root imports no submodule."""
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import ghg; "
        "print(sorted(m for m in sys.modules if m.startswith('ghg.'))); import ghg.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ghg.verify') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe],
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:2] == ["[]", "['ghg.verify']"]
