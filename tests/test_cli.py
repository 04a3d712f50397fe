import json

import pytest

from inbl.cli import main

from conftest import EQ12_TEXT, EQ7_TEXT, EQ9_TEXT

BOOK_TEXT = "names 2; numbers 2;\n01 -> 10\n10 -> 11\n"


@pytest.fixture
def eq9_file(tmp_path):
    path = tmp_path / "eq9.nbl"
    path.write_text(f"bits 4;\n{EQ9_TEXT}\n")
    return str(path)


@pytest.fixture
def eq12_file(tmp_path):
    path = tmp_path / "eq12.nbl"
    path.write_text(f"bits 4;\n{EQ12_TEXT}\n")
    return str(path)


@pytest.fixture
def eq7_file(tmp_path):
    path = tmp_path / "eq7.nbl"
    path.write_text(f"bits 2;\n{EQ7_TEXT}\n")
    return str(path)


@pytest.fixture
def book_file(tmp_path):
    path = tmp_path / "book.txt"
    path.write_text(BOOK_TEXT)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_search_present(capsys, eq9_file):
    code, report = run_json(capsys, ["search", eq9_file, "--string", "1010", "--seed", "1"])
    assert code == 0
    assert report["outcome"]["verdict"] == "present"
    assert report["outcome"]["switch_ops"] == 4
    assert report["parameters"]["bits"] == 4


def test_search_absent_exit_code(capsys, eq9_file):
    code, report = run_json(capsys, ["search", eq9_file, "--string", "1111", "--seed", "1"])
    assert code == 1
    assert report["outcome"]["verdict"] == "absent"


def test_search_fragments(capsys, eq12_file):
    code, report = run_json(
        capsys,
        ["search", eq12_file, "--fragments", "1=0,2=0,4=0", "--tau", "8",
         "--seed", "2", "--oracle-check"],
    )
    assert code == 0
    assert report["outcome"]["verdict"] == "present"
    assert report["oracle_check"] == {
        "survivor_count": 2,
        "survivors": ["0000", "0010"],
        "noncanonical": False,
        "agrees": True,
    }


def test_search_fragment_absent_bounded(capsys, eq9_file):
    code, report = run_json(
        capsys,
        ["search", eq9_file, "--fragments", "1=1,2=1", "--tau", "5",
         "--seed", "3", "--oracle-check"],
    )
    assert code == 1
    assert report["outcome"]["verdict"] == "absent_bounded"
    assert report["outcome"]["epsilon"] == {"mantissa": "1", "exp2": -5}
    assert report["oracle_check"]["certified_absent"] is True


def test_entangle(capsys, eq7_file):
    code, report = run_json(capsys, ["entangle", eq7_file, "--seed", "4", "--oracle-check"])
    assert code == 0
    assert report["bell_class"] == "S01+10"
    assert report["oracle_check"]["agrees"] is True


def test_entangle_both_probe_variants_agree(capsys, eq7_file):
    _, a = run_json(capsys, ["entangle", eq7_file, "--seed", "5", "--probe-partner", "0"])
    _, b = run_json(capsys, ["entangle", eq7_file, "--seed", "5", "--probe-partner", "1"])
    assert a["bell_class"] == b["bell_class"] == "S01+10"


def test_lookup(capsys, book_file):
    code, report = run_json(
        capsys, ["lookup", book_file, "--name", "01", "--seed", "6", "--oracle-check"]
    )
    assert code == 0
    assert report["result"] == "10"
    assert report["switch_ops"] == 6 == report["switching_cost"]


def test_inverse_lookup(capsys, book_file):
    code, report = run_json(
        capsys, ["inverse-lookup", book_file, "--number", "11", "--seed", "6"]
    )
    assert code == 0
    assert report["result"] == "10"
    assert report["switch_ops"] == 6


@pytest.mark.parametrize("cmd, flag, key, result, cost", [
    ("lookup", "--name", "110", "01011", 3 + 2 * 5),
    ("inverse-lookup", "--number", "01011", "110", 5 + 2 * 3),
])
def test_lookup_unequal_widths(capsys, tmp_path, cmd, flag, key, result, cost):
    book = tmp_path / "book35.txt"
    book.write_text("names 3; numbers 5;\n001 -> 11100\n110 -> 01011\n011 -> 00001\n")
    code, report = run_json(
        capsys, [cmd, str(book), flag, key, "--seed", "3", "--oracle-check"]
    )
    assert code == 0
    assert report["result"] == result == report["oracle_check"]["expected"]
    assert report["switch_ops"] == cost == report["switching_cost"]


def test_lookup_absent_name_errors(capsys, book_file):
    code = main(["lookup", book_file, "--name", "11", "--seed", "7"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_zero_stats_symmetric(capsys):
    code, report = run_json(
        capsys,
        ["zero-stats", "--bits", "1", "--scheme", "sym", "--clocks", "20000", "--seed", "8"],
    )
    assert code == 0
    frac = report["zero_stats"]["zero_fraction"]
    assert 0.45 < frac < 0.55
    assert report["zero_stats"]["histogram_log_slope"] is not None


def test_crosscorr_strings(capsys):
    code, report = run_json(
        capsys,
        ["crosscorr", "--strings", "1010,0110", "--clocks", "100000", "--seed", "9"],
    )
    assert code == 0
    assert abs(report["estimate"]) <= report["bound_5_over_sqrt_T"]


def test_speedup(capsys):
    code, report = run_json(
        capsys, ["speedup", "--bits", "4", "--name-bits", "8", "--number-bits", "8"]
    )
    assert code == 0
    assert report["speedup"]["classical_ratio"] == "4"
    assert report["speedup"]["photon_bound"] == 64
    assert report["speedup"]["phonebook_forward_ops"] == 24


def test_reports_reproducible_modulo_duration(capsys, eq9_file):
    argv = ["search", eq9_file, "--string", "0010", "--seed", "11", "--oracle-check"]
    _, a = run_json(capsys, argv)
    _, b = run_json(capsys, argv)
    a.pop("duration_s")
    b.pop("duration_s")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_out_file_and_table(tmp_path, capsys, eq9_file):
    out = tmp_path / "report.json"
    code = main(["search", eq9_file, "--string", "1010", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["outcome"]["verdict"] == "present"
    code = main(["search", eq9_file, "--string", "1010", "--seed", "1", "--output", "table"])
    assert code == 0
    assert "verdict: present" in capsys.readouterr().out


def test_env_seed_default(capsys, eq9_file, monkeypatch):
    monkeypatch.setenv("INBL_SEED", "123")
    _, report = run_json(capsys, ["search", eq9_file, "--string", "1010"])
    assert report["seed"] == 123


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.nbl"
    bad.write_text("bits 4;\nR1_0 + * R2_1\n")
    assert main(["search", str(bad), "--string", "1010"]) == 2
    assert main(["search", str(tmp_path / "missing.nbl"), "--string", "1"]) == 2


def test_deeply_nested_file_exits_2(tmp_path, capsys):
    # exit 1 means "absent", so no crash may end there
    deep = tmp_path / "deep.nbl"
    deep.write_text("(" * 2000 + "R1_0" + ")" * 2000 + "\n")
    assert main(["search", str(deep), "--string", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_flip_prob_exits_2(capsys, eq9_file):
    assert main(["search", eq9_file, "--string", "1010", "--flip-prob", "1/0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["speedup", "--bits", "4", "--flip-prob", "7/3"],
    ["speedup", "--bits", "4", "--seed", "1"],
    ["speedup", "--bits", "4", "--max-wait", "-5"],
    ["zero-stats", "--bits", "1", "--max-wait", "5"],
    ["crosscorr", "--strings", "10,01", "--max-wait", "5"],
])
def test_flags_a_subcommand_ignores_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
