"""Exit codes, output formats, and catalog selection in the CLI."""
import json
import subprocess
import sys
import time
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
    for command in ("compute", "rational"):  # rational counts a class it never reads
        code = cli.run([command, "--group", "TEST", "--base", "sphere:2",
                        "--class", "1,2", "--degree", "1"])
        assert code == 1, command
        assert "coordinate" in capsys.readouterr().err, command


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


def test_genus_four_million_refusal_is_fast(capsys):
    """The genus summand alone, (Z/2)^8000000, forces the torsion order
    past the bound, so the query is refused before that sum is built."""
    start = time.perf_counter()
    code = cli.run(["compute", "--group", "TEST", "--base", "surface:4000000",
                    "--degree", "2", "--class", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err == "ghg: compute: extension torsion order exceeds the bound 10000\n"


@pytest.mark.parametrize("genus, clazz", [(10**19, []), (10**19, ["--class", "1"]),
                                          (10**17, []), (10**17, ["--class", "1"])],
                         ids=["no-class", "class-1", "genus-1e17-no-class", "genus-1e17-class-1"])
def test_genus_past_the_index_size_is_refused(capsys, genus, clazz):
    """pi_4(SU2) = Z/2 taken 2g times is more torsion summands than can be
    built: past the index size at g = 10^19 (OverflowError), past what can
    be allocated at g = 10^17 (MemoryError, with no memory taken). The
    query is refused, naming the count."""
    code = cli.run(["compute", "--group", "SU2", "--base", f"surface:{genus}",
                    "--degree", "3", *clazz])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"ghg: compute: sub would have {2 * genus + 1} torsion "
                            "summands, more than can be built\n")


def test_genus_past_the_index_size_adds_free_rank(capsys):
    """pi_3(SU2) = Z is torsion-free, so the genus adds rank alone."""
    code = cli.run(["compute", "--group", "SU2", "--base", "surface:10000000000000000000",
                    "--degree", "2"])
    assert code == 0
    assert capsys.readouterr().out == "Z^20000000000000000000 + Z/2\n"


def test_integer_past_digit_limit_is_usage_error(capsys):
    """A --base or --class integer with more digits than int() converts
    is refused with the digit limit named, not as a non-integer."""
    limit = sys.get_int_max_str_digits()
    huge = "9" * (limit + 1)
    for base, clazz, what in ((f"sphere:{huge}", "0", "base parameter"),
                              ("sphere:4", huge, "class coordinate")):
        code = cli.run(["compute", "--group", "SU2", "--base", base, "--class", clazz,
                        "--degree", "2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"ghg: usage error: {what} has over {limit} digits\n"


def test_option_integer_past_digit_limit_is_usage_error(capsys):
    """--degree, --torsion-bound and --seed name the int digit limit as
    --base and --class do, rather than echo every digit as no int; a value
    that is no integer at all keeps argparse's own message."""
    limit = sys.get_int_max_str_digits()
    compute = ["compute", "--group", "SU2", "--base", "sphere:4", "--class", "0", "--degree"]
    for value, template in (("9" * 5000, "ghg: usage error: {what} has over %d digits\n" % limit),
                            ("abc", "ghg: usage error: argument {flag}: invalid int value: 'abc'\n")):
        for argv, flag, what in ((compute + [value], "--degree", "degree"),
                                 (compute + ["2", "--torsion-bound", value], "--torsion-bound",
                                  "torsion bound"),
                                 (["verify", "--seed", value], "--seed", "seed")):
            code = cli.run(argv)
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err == template.format(what=what, flag=flag)


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


def test_empty_catalog_flag_is_usage_error(tmp_path, capsys, monkeypatch):
    """An empty --catalog, as an unset shell variable gives, names no file:
    it neither falls back to GHG_CATALOG nor to the shipped table."""
    for env in (None, tiny_catalog(tmp_path)):
        if env is None:
            monkeypatch.delenv("GHG_CATALOG", raising=False)
        else:
            monkeypatch.setenv("GHG_CATALOG", env)
        code = cli.run(["compute", "--group", "SU2", "--base", "sphere:4", "--degree", "2",
                        "--catalog", ""])
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert "usage error: --catalog needs a path" in out.err
    # an empty variable still counts as unset
    monkeypatch.setenv("GHG_CATALOG", "")
    assert cli.run(["compute", "--group", "SU2", "--base", "sphere:4", "--degree", "2"]) == 0
    assert capsys.readouterr().out == "Z/12\n"


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


def _child(probe: str) -> str:
    """Stdout of `probe` run in a fresh `python -S` child that imports
    ghg from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); {probe}"
    return subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_stays_light():
    """A cold `ghg compute` pays for every module `ghg.cli` pulls in:
    dataclasses alone brings inspect, ast, dis and tokenize. ghg.verify
    is registered in sys.modules, since the benchmark reads it from there
    right after importing ghg.cli, but lazily: random, which only the
    suite imports, stays unloaded. The package root imports no submodule."""
    out = _child(
        "import ghg; print(sorted(m for m in sys.modules if m.startswith('ghg.'))); import ghg.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ghg.verify', 'random') if m in sys.modules))"
    )
    assert out.split("\n")[:2] == ["[]", "['ghg.verify']"]


def test_lazy_verify_is_the_one_module():
    """After ghg.cli, `import ghg.verify` and the package attribute give the
    module in sys.modules; imported first, ghg.verify is the one ghg.cli
    uses."""
    out = _child(
        "import ghg.cli; import ghg.verify; from ghg import verify; m = sys.modules['ghg.verify']; "
        "print(ghg.verify is m, verify is m, ghg.cli.verify is m, m.SEED)"
    )
    assert out == "True True True 20260814\n"
    out = _child(
        "import ghg.verify; m = sys.modules['ghg.verify']; import ghg.cli; "
        "print(ghg.cli.verify is m, ghg.verify is m)"
    )
    assert out == "True True\n"


def test_verify_runs_checks_replaced_before_loading():
    """The benchmark's contract: CHECKS replaced on sys.modules['ghg.verify']
    right after importing ghg.cli is the list `ghg verify` runs."""
    out = _child(
        "import ghg.cli; "
        "sys.modules['ghg.verify'].CHECKS = [('stub', lambda catalog, rng: 'stubbed')]; "
        "print(ghg.cli.run(['verify']))"
    )
    assert out == "PASS stub: stubbed\n1/1 checks passed\n0\n"


COLD_COMPUTE_MODULES = [
    "__future__", "_bz2", "_compression", "_json", "_locale", "_lzma", "_sre", "argparse",
    "bz2", "copyreg", "enum", "errno", "fnmatch", "gettext", "ghg", "ghg.catalog",
    "ghg.exactseq", "ghg.fgab", "ghg.gaugecalc", "ghg.verify", "ipaddress", "json",
    "json.decoder", "json.encoder", "json.scanner", "locale", "lzma", "math", "ntpath",
    "pathlib", "re", "re._casefix", "re._compiler", "re._constants", "re._parser", "shutil",
    "urllib", "urllib.parse", "zlib",
]


def test_compute_as_main_leaves_verify_unloaded():
    """The route a cold `python -m ghg.cli compute` takes, where cli.py runs
    as __main__ rather than as ghg.cli: the suite is never compiled. The
    modules the run adds to a bare `python -S` are pinned (on CPython
    3.11), so a PR that drops or adds an import shows it here; pathlib
    alone brings shutil, fnmatch, bz2, lzma, zlib and urllib.parse."""
    out = _child(
        "import runpy; "
        "sys.argv = ['ghg', 'compute', '--group', 'SU2', '--base', 'sphere:4', '--class', '6', '--degree', '2']\n"
        "before = set(sys.modules)\n"
        "try:\n    runpy.run_module('ghg.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n    print('exit', exc.code)\n"
        "print('random' in sys.modules)\n"
        "print(sorted(set(sys.modules) - before))"
    )
    assert out == f"Z/6\nexit 0\nFalse\n{COLD_COMPUTE_MODULES}\n"
