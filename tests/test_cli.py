import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inbl
from inbl.cli import main
from inbl.dsl import parse_dsl
from inbl.expr import evaluate
from inbl.reference import ReferenceSystem, RtwScheme, WireId

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


def test_bounded_search_reports_its_outcome_fields_alone(capsys, eq9_file):
    # no step per reading: the fields fix every one of the 64 zeros read
    code, report = run_json(
        capsys, ["search", eq9_file, "--fragments", "1=1,2=1", "--tau", "64", "--seed", "3"]
    )
    assert code == 1
    outcome = report["outcome"]
    assert set(outcome) == {"verdict", "switch_ops", "clocks_waited", "clocks_observed",
                            "witness_clock", "amplitude", "epsilon"}
    assert outcome["verdict"] == "absent_bounded" and outcome["clocks_observed"] == 64


def test_entangle(capsys, eq7_file):
    code, report = run_json(capsys, ["entangle", eq7_file, "--seed", "4", "--oracle-check"])
    assert code == 0
    assert report["bell_class"] == "S01+10"
    assert report["oracle_check"]["agrees"] is True


@pytest.mark.parametrize("partner", [0, 1])
def test_entangle_report_states_the_live_clock_and_five_readings(capsys, eq7_file, partner):
    argv = ["entangle", eq7_file, "--scheme", "sym", "--seed", "9", "--probe-partner", str(partner)]
    code, report = run_json(capsys, argv)
    assert code == 0
    assert set(report) == {"command", "subcommand", "seed", "parameters", "bell_class",
                           "live_clock", "switch_ops", "readings", "duration_s"}
    assert report["switch_ops"] == 4
    # the un-grounded signal, then per bit-1 value v R1_(1-v) grounded,
    # without and with R2_p, each read by the scalar evaluator
    system = ReferenceSystem(2, RtwScheme.SYMMETRIC, master_seed=9)
    t = report["live_clock"]
    assert type(t) is int and not evaluate(parse_dsl(EQ7_TEXT), system, t).is_zero()
    configs = [0]
    for v in (0, 1):
        side = 1 << WireId(1, 1 - v).tag
        configs += [side, side | 1 << WireId(2, partner).tag]
    assert report["readings"] == [
        evaluate(parse_dsl(EQ7_TEXT), system, t, mask).to_json() for mask in configs]


@pytest.mark.parametrize("seed", range(1, 6))
def test_entangle_refuses_a_signal_outside_the_legal_classes(tmp_path, capsys, seed):
    # three strings: the probes alone named S01+10 or S10, by seed
    path = tmp_path / "three.nbl"
    path.write_text("bits 2;\nR1_0*R2_0 + R1_0*R2_1 + R1_1*R2_0\n")
    argv = ["entangle", str(path), "--scheme", "sym", "--seed", str(seed)]
    for extra in ([], ["--oracle-check"]):
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: the signal is none of the six legal two-bit classes\n")


@pytest.mark.parametrize("text,size", [
    ("R1_0 + R1_1\n", "has no 'bits M;' header and uses bit indices up to 1"),
    ("R1_0*R2_0*R3_1\n", "has no 'bits M;' header and uses bit indices up to 3"),
    ("bits 3;\nR1_0*R2_1 + R1_1*R2_0\n", "declares 3 bits"),
])
def test_entangle_of_another_size_names_where_its_size_came_from(tmp_path, capsys, text, size):
    path = tmp_path / "one.nbl"
    path.write_text(text)
    assert main(["entangle", str(path), "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {size}, expected 2\n"


def test_entangle_makes_one_library_call(tmp_path, capsys, monkeypatch, eq7_file):
    # the command's class check is entangle_discriminate's own: one call per
    # run, legal or not, with or without the oracle check, and the same
    # output as the unwrapped routine gives
    three = tmp_path / "three.nbl"
    three.write_text("bits 2;\nR1_0*R2_0 + R1_0*R2_1 + R1_1*R2_0\n")
    runs = [["entangle", eq7_file, "--seed", "4"],
            ["entangle", eq7_file, "--seed", "4", "--oracle-check"],
            ["entangle", str(three), "--scheme", "sym", "--seed", "1"]]

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        report = json.loads(out) if out else None
        if report is not None:
            del report["duration_s"]
        return code, report, err

    unwrapped = [run(argv) for argv in runs]
    assert [code for code, _, _ in unwrapped] == [0, 0, 2]
    calls = []
    real = inbl.cli.entangle_discriminate

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(inbl.cli, "entangle_discriminate", counting)
    for argv, expected in zip(runs, unwrapped):
        calls.clear()
        assert run(argv) == expected
        assert len(calls) == 1


def test_search_string_on_an_uncertified_file(tmp_path, capsys):
    # the un-grounded R1_0 term is not a full string, so one reading of 00
    # could be a cancellation: seed 4 reads 0 at the live clock
    path = tmp_path / "mixed.nbl"
    path.write_text("bits 2;\nR1_0 + R1_0*R2_0 + R1_1*R2_1\n")
    argv = ["search", str(path), "--scheme", "sym", "--seed", "4", "--oracle-check"]
    code, report = run_json(capsys, argv + ["--string", "00"])
    assert code == 0 and report["outcome"]["verdict"] == "present"
    assert report["outcome"]["clocks_observed"] > 1
    assert report["oracle_check"]["survivors"] == ["0-", "00"]
    assert report["oracle_check"]["agrees"] is True
    # --tau bounds an absent full string on such a file
    code, report = run_json(capsys, argv + ["--string", "10", "--tau", "5"])
    assert code == 1 and report["outcome"]["verdict"] == "absent_bounded"
    assert report["outcome"]["epsilon"] == {"mantissa": "1", "exp2": -5}
    assert report["parameters"]["tau"] == 5
    assert report["oracle_check"]["certified_absent"] is True


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


@pytest.mark.parametrize("text, error", [
    ("names 2; numbers 2;\n00 -> 10\n  011 -> 11\n", "3:3: bad name '011' for 2 bits"),
    ("names 2; numbers 2;\n00 -> 10\n01 -> 11\n 00 -> 01\n", "4:2: name 00 appears twice"),
], ids=["width", "repeat"])
def test_a_bad_phonebook_entry_exits_2_at_its_position(tmp_path, capsys, text, error):
    path = tmp_path / "bad.pb"
    path.write_text(text)
    assert main(["lookup", str(path), "--name", "00"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("cmd, flag, key, result", [
    ("lookup", "--name", "01", "10"),
    ("lookup", "--name", "11", None),
    ("inverse-lookup", "--number", "11", "10"),
    ("inverse-lookup", "--number", "00", None),
])
@pytest.mark.parametrize("seed", [6, 7])
def test_lookup_reports_its_verdict_and_readings(capsys, book_file, cmd, flag, key, result, seed):
    # an absent key is a verdict, not an error: exit 1 with a full report,
    # and the oracle agrees that neither side has it
    argv = [cmd, book_file, flag, key, "--scheme", "sym", "--seed", str(seed)]
    for extra in ([], ["--oracle-check"]):
        code, report = run_json(capsys, argv + extra)
        assert code == (0 if result else 1)
        assert report["verdict"] == ("present" if result else "absent")
        assert report["result"] == result
        assert report["switch_ops"] == 6 == report["switching_cost"]
    assert report["oracle_check"] == {"expected": result, "agrees": True}
    # the un-grounded book, the collapse onto the key, then each wire of the
    # other side's two digits grounded on it, each read by the scalar evaluator
    system = ReferenceSystem(4, RtwScheme.SYMMETRIC, master_seed=seed)
    expr = inbl.build_phonebook(inbl.parse_phonebook(BOOK_TEXT)).expr
    t = report["live_clock"]
    assert type(t) is int and not evaluate(expr, system, t).is_zero()
    offset, probed = (0, (3, 4)) if cmd == "lookup" else (2, (1, 2))
    collapse = sum(1 << WireId(offset + i + 1, 1 - int(c)).tag for i, c in enumerate(key))
    configs = [0, collapse] + [collapse | 1 << WireId(j, v).tag for j in probed for v in (0, 1)]
    assert report["readings"] == [evaluate(expr, system, t, mask).to_json() for mask in configs]


def test_probe_inconsistency_exits_2_without_traceback(capsys, monkeypatch, book_file):
    from inbl.experiments import ConfigReader

    real_read = ConfigReader.read

    def every_probe_zero(reader, t0, clocks):
        readings, exp2 = real_read(reader, t0, clocks)
        readings[2:] = 0
        return readings, exp2

    monkeypatch.setattr(ConfigReader, "read", every_probe_zero)
    code = main(["lookup", book_file, "--name", "01", "--seed", "6"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: probe inconsistency at bit 3" in err
    assert "Traceback" not in err


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


def test_crosscorr_files_of_unequal_width(capsys, tmp_path):
    a, b = tmp_path / "a.nbl", tmp_path / "b.nbl"
    a.write_text("bits 2;\nR1_0*R2_1\n")
    b.write_text("bits 3;\nR1_1*R2_0*R3_1\n")
    code, report = run_json(capsys, ["crosscorr", str(a), str(b), "--clocks", "1000", "--seed", "3"])
    assert code == 0
    assert report["parameters"]["bits"] == 3
    assert report["parameters"]["signals"] == [str(a), str(b)]


@pytest.mark.parametrize("argv, pinned, digest", [
    (["zero-stats", "--bits", "4", "--scheme", "sym", "--flip-prob", "1/8",
      "--clocks", "300000", "--seed", "5"],
     {"zero_clocks": 281238, "bins": 168, "longest": 247},
     "257f48d2174f02869b270da6cd18e7439954ae88824f75f5a0eee1e6abd8963b"),
    (["crosscorr", "--strings", "10110100,01101001", "--clocks", "300001", "--seed", "3"],
     {"estimate": "-0.0011433295222349259"},
     "127521a85246a49b86bb96f20b2fd800b6d8eb515fa0513f49b19104d8761772"),
], ids=["zero-stats", "crosscorr"])
def test_statistics_reports_are_pinned(capsys, argv, pinned, digest):
    # windows of several passes; the digest covers the whole report but its duration
    code, report = run_json(capsys, argv)
    assert code == 0
    del report["duration_s"]
    if "zero_stats" in report:
        histogram = report["zero_stats"]["waiting_time_histogram"]
        assert {"zero_clocks": report["zero_stats"]["zero_clocks"], "bins": len(histogram),
                "longest": max(map(int, histogram))} == pinned
    else:
        assert {"estimate": repr(report["estimate"])} == pinned
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest


def test_crosscorr_of_1000_bit_files_reads_past_the_float_range(capsys, tmp_path):
    u, even = tmp_path / "u1000.nbl", tmp_path / "e1000.nbl"
    u.write_text("bits 1000;\nU\n")
    even.write_text("bits 1000;\nEVEN\n")
    code, report = run_json(capsys, ["crosscorr", str(u), str(even), "--clocks", "10"])
    assert code == 0
    assert -1.0 <= report["estimate"] < -0.99


@pytest.mark.parametrize("args, message", [
    (["one.nbl"], "crosscorr needs two .nbl files or --strings"),
    (["--strings", "10,01,11"], "--strings takes exactly two comma-separated bit strings"),
])
def test_crosscorr_without_two_signals_exits_2(capsys, args, message):
    assert main(["crosscorr", *args, "--clocks", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_zero_stats_of_a_file(capsys, eq9_file):
    code, report = run_json(capsys, ["zero-stats", "--expr", eq9_file, "--clocks", "2000", "--seed", "4"])
    assert code == 0
    assert report["parameters"]["expr"] == eq9_file
    assert report["parameters"]["bits"] == 4
    assert 0 <= report["zero_stats"]["zero_fraction"] <= 1


def test_unexpected_exception_exits_2_with_its_traceback(capsys, monkeypatch):
    import inbl.experiments

    def fail(*args):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(inbl.experiments, "run_zero_stats", fail)
    assert main(["zero-stats", "--bits", "2", "--clocks", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("Traceback")
    assert err.splitlines()[-1] == "error: RuntimeError: injected failure"


def test_speedup(capsys):
    code, report = run_json(
        capsys, ["speedup", "--bits", "4", "--name-bits", "8", "--number-bits", "8"]
    )
    assert code == 0
    assert report["speedup"]["classical_ratio"] == "4"
    assert report["speedup"]["photon_bound"] == 64
    assert report["speedup"]["phonebook_forward_ops"] == 24


def test_speedup_bits_limit(capsys):
    code, report = run_json(capsys, ["speedup", "--bits", "1023"])
    assert code == 0 and report["speedup"]["num_bits"] == 1023
    assert main(["speedup", "--bits", "1024"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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


@pytest.mark.parametrize("text, where", [
    (f"bits 2;\nR1_0 + {'9' * 5000}*R2_1\n", "2:8"), (f"bits 2;\nU({'9' * 5000})\n", "2:3"),
], ids=["coefficient", "builtin"])
def test_too_long_integer_exits_2_at_its_token(tmp_path, capsys, text, where):
    path = tmp_path / "long.nbl"
    path.write_text(text)
    assert main(["search", str(path), "--string", "01"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: integer of 5000 digits is too long")


def test_declared_size_zero_exits_2(tmp_path, capsys):
    bad = tmp_path / "zero.nbl"
    bad.write_text("bits 0;\nR1_0\n")
    assert main(["search", str(bad), "--string", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "declared size must be >= 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fragments", ["1=0,1=1", "1=0,1=0"])
def test_repeated_fragment_index_exits_2(tmp_path, capsys, fragments):
    path = tmp_path / "e.nbl"
    path.write_text("bits 2;\nR1_0*R2_1 + R1_1*R2_0\n")
    assert main(["search", str(path), "--fragments", fragments]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 1:5: bit index 1 is assigned twice\n"


def test_bad_fragment_exits_2_at_its_column(tmp_path, capsys):
    path = tmp_path / "e.nbl"
    path.write_text("bits 4;\nR1_0*R2_1*R3_0*R4_1\n")
    assert main(["search", str(path), "--fragments", "1=0, 2=0, 4:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 1:11: bad fragment '4:1', expected INDEX=BIT\n"


def test_builtin_of_size_zero_exits_2_at_its_position(tmp_path, capsys):
    path = tmp_path / "u0.nbl"
    path.write_text("bits 2;\nU(0) + R1_0")
    assert main(["search", str(path), "--string", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 2:3: ")
    assert "Traceback" not in err


# byte pieces of .nbl and phonebook files after an optional header; ints
# carry a space so that adjacent ones never merge into one huge size
_FILE_HEADERS = [b"", b"bits 2;\n", b"names 1; numbers 1;\n", b"names 1; numbers 2;\n"]
_FILE_SOUP = [b"bits ", b"names ", b"numbers ", b"1 ", b"2 ", b"0 ", b";", b"\n", b" -> ",
              b"0 -> 1\n", b"1 -> 10\n", b"01", b"R1_0", b"R2_1", b"R3_0", b"R1_0*R2_1",
              b"R1_1*R2_0", b"U", b"EVEN", b"ODD", b"+", b" - ", b"*", b"(", b")", b"#",
              b"\xff", b"\x00", b"\xc3\xa9"]


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.binary(max_size=48),
    st.builds(bytes.__add__, st.sampled_from(_FILE_HEADERS),
              st.lists(st.sampled_from(_FILE_SOUP), max_size=12).map(b"".join))))
def test_arbitrary_file_bytes_exit_0_1_or_2(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(data)
    for argv in (["search", str(path), "--string", "10"],
                 ["search", str(path), "--fragments", "1=0", "--tau", "4"],
                 ["entangle", str(path)],
                 ["lookup", str(path), "--name", "0"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--max-wait", "64", "--seed", "3"])
        assert code in (0, 1, 2), (argv, code)
        if code == 1:  # absent, and only absent, exits 1 (a lookup's verdict is top-level)
            report = json.loads(out.getvalue())
            assert report.get("outcome", report)["verdict"].startswith("absent")
        if code == 2:
            assert err.getvalue().startswith("error:"), err.getvalue()
            assert "Traceback" not in err.getvalue()


def test_deeply_nested_file_reports_like_its_flat_form(tmp_path, capsys):
    flat = tmp_path / "flat.nbl"
    flat.write_text(f"bits 4;\n{EQ9_TEXT}\n")
    deep = tmp_path / "deep.nbl"
    deep.write_text("bits 4;\n" + "(" * 10_000 + EQ9_TEXT + ")" * 10_000 + "\n")
    for string, want in (("1010", 0), ("1111", 1)):
        reports = []
        for path in (deep, flat):
            code, report = run_json(
                capsys, ["search", str(path), "--string", string, "--oracle-check", "--seed", "1"]
            )
            assert code == want
            del report["duration_s"], report["parameters"]["file"]
            report["command"].remove(str(path))
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["oracle_check"]["agrees"]


def test_bad_flip_prob_exits_2(capsys, eq9_file):
    assert main(["search", eq9_file, "--string", "1010", "--flip-prob", "1/0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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


def test_speedup_lone_phonebook_width_exits_2(capsys):
    for widths in (["--name-bits", "3"], ["--number-bits", "3"], ["--name-bits", "0"]):
        assert main(["speedup", "--bits", "4", *widths]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: phonebook costs need both") and err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["search", "entangle", "lookup", "inverse-lookup"])
def test_negative_max_wait_exits_2(capsys, cmd, eq9_file, eq7_file, book_file):
    argv = {
        "search": ["search", eq9_file, "--string", "1010"],
        "entangle": ["entangle", eq7_file],
        "lookup": ["lookup", book_file, "--name", "01"],
        "inverse-lookup": ["inverse-lookup", book_file, "--number", "11"],
    }[cmd]
    assert main(argv + ["--max-wait", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_wait must be >= 0, got -1\n"


def test_parser_is_built_once(capsys, monkeypatch, eq9_file, eq12_file, eq7_file, book_file):
    main(["speedup", "--bits", "4"])

    def refuse(*args, **kwargs):
        raise AssertionError("the parser was rebuilt")

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", refuse)
    for argv in (
        ["search", eq9_file, "--string", "1010", "--seed", "1"],
        ["search", eq12_file, "--fragments", "1=0,2=0,4=0", "--tau", "8", "--seed", "2"],
        ["entangle", eq7_file, "--seed", "4"],
        ["lookup", book_file, "--name", "01", "--seed", "6"],
        ["inverse-lookup", book_file, "--number", "11", "--seed", "6"],
        ["zero-stats", "--bits", "1", "--clocks", "1000"],
        ["crosscorr", "--strings", "10,01", "--clocks", "1000"],
        ["speedup", "--bits", "4", "--name-bits", "2", "--number-bits", "2"],
    ):
        capsys.readouterr()
        assert main(argv) == 0, argv
        assert json.loads(capsys.readouterr().out)["subcommand"] == argv[0]


def test_no_state_leaks_between_calls(capsys, monkeypatch, eq9_file):
    monkeypatch.setenv("INBL_SEED", "77")
    _, first = run_json(
        capsys, ["search", eq9_file, "--string", "1010", "--oracle-check", "--seed", "5"]
    )
    assert first["seed"] == 5 and first["oracle_check"]["agrees"] is True
    _, second = run_json(capsys, ["search", eq9_file, "--string", "1010"])
    assert "oracle_check" not in second
    assert second["seed"] == 77
    assert second["command"] == ["search", eq9_file, "--string", "1010"]
    # $INBL_SEED is read at call time, not when the parser was built
    monkeypatch.setenv("INBL_SEED", "78")
    assert run_json(capsys, ["search", eq9_file, "--string", "1010"])[1]["seed"] == 78


def test_tau_above_the_cap_exits_2(capsys, tmp_path):
    # a bounded search holds its tau readings at once, so a huge tau would
    # hold millions of them; one past 2**15 is refused up front
    path = tmp_path / "f.nbl"
    path.write_text("bits 2;\nR1_1*R2_0\n")
    argv = ["search", str(path), "--fragments", "1=0", "--seed", "1"]
    assert main(argv + ["--tau", str(2**15 + 1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "32768" in err
    code, report = run_json(capsys, argv + ["--tau", str(2**15)])
    assert code == 1 and report["outcome"]["verdict"] == "absent_bounded"
    assert report["outcome"]["clocks_observed"] == 2**15


def test_rejected_argv_leaves_no_trace(capsys, eq9_file):
    argv = ["search", eq9_file, "--string", "0010", "--seed", "11"]
    _, alone = run_json(capsys, argv)
    with pytest.raises(SystemExit) as exc:
        main(["search", eq9_file, "--string", "0010", "--oracle-check", "--seed", "3",
              "--tau", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    _, after = run_json(capsys, argv)
    alone.pop("duration_s")
    after.pop("duration_s")
    assert after == alone


def test_import_builds_no_parser():
    # the build belongs to the first main call, not to every start-up
    script = (
        "import argparse\n"
        "calls = []\n"
        "real = argparse._ActionsContainer.add_argument\n"
        "def counted(self, *args, **kwargs):\n"
        "    calls.append(args)\n"
        "    return real(self, *args, **kwargs)\n"
        "argparse._ActionsContainer.add_argument = counted\n"
        "import inbl.cli\n"
        "after_import = len(calls)\n"
        "for _ in range(2):\n"
        "    inbl.cli.main(['speedup', '--bits', '4', '--out', %r])\n"
        "    print(after_import, len(calls))\n"
    ) % os.devnull
    src = os.path.dirname(os.path.dirname(inbl.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    (zero, built), (_, again) = (map(int, line.split()) for line in done.stdout.splitlines())
    assert zero == 0 and built > 0 and again == built


def test_every_readme_usage_line_parses():
    # the README's usage block: each `inbl ...` line is parsed, not run, so a
    # renamed or removed flag fails here; the block covers every subcommand
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("inbl ")]
    parser = inbl.cli.build_parser()
    commands = set()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        commands.add(args.cmd)
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert commands == set(subparsers.choices)
