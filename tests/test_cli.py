import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import run_cli
from kleincode.casebound import TRACE_CHAR_CAP, TRACED_CLASSES
from kleincode.poly import format_monomial

GOLDEN = Path(__file__).parent / "golden"
TRACES = Path(__file__).parent.parent / "src" / "kleincode" / "traces"


def copy_shipped_traces(directory):
    for trace in TRACES.glob("*.trace"):
        (directory / trace.name).write_text(trace.read_text())


def test_footprint_text():
    code, out = run_cli(["footprint"])
    assert code == 0
    assert "footprint size 22" in out
    assert "X^7(14)" in out


def test_footprint_json_golden():
    code, out = run_cli(["footprint", "--format", "json"])
    assert code == 0
    assert out == GOLDEN.joinpath("footprint.json").read_text()
    data = json.loads(out)
    assert data["size"] == 22


def test_variety_csv():
    code, out = run_cli(["variety", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 23
    assert "0,0" in lines


def test_bound_json_golden():
    code, out = run_cli(["bound", "--format", "json"])
    assert code == 0
    assert out == GOLDEN.joinpath("bound.json").read_text()
    data = json.loads(out)
    assert len(data["classes"]) == 9
    assert data["delta_map"]["Y"] == 18
    assert data["delta_map"]["X^7"] == 1


def test_bound_auto_json_golden():
    code, out = run_cli(["bound", "--auto", "--lm", "Y", "--format", "json"])
    assert code == 0
    assert out == GOLDEN.joinpath("auto_y.json").read_text()


def test_bound_single_class():
    code, out = run_cli(["bound", "--lm", "X*Y"])
    assert code == 0
    assert "X*Y: bound 15" in out


def test_bound_class_without_trace_reports_divisibility_count():
    code, out = run_cli(["bound", "--lm", "X^6*Y^2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["classes"] == [{
        "monomial": "X^6*Y^2", "parameters": 21, "baseline": 1, "bound": 1,
        "leaves": [{"constraints": "(no constraints)", "established": [],
                    "count": 1, "vacuous": False}],
    }]
    assert data["delta_map"]["X^6*Y^2"] == 1
    code, out = run_cli(["bound", "--lm", "X^6*Y^2"])
    assert out.startswith("X^6*Y^2: bound 1 (baseline 1, 1 leaves)\n")


def test_bound_with_trace_dir():
    code, out = run_cli(["bound", "--traces", str(TRACES), "--format", "json"])
    assert code == 0
    assert json.loads(out)["delta_map"]["Y^2"] == 13


def test_table_json_golden():
    code, out = run_cli(["table", "--format", "json"])
    assert code == 0
    assert out == GOLDEN.joinpath("table.json").read_text()
    rows = json.loads(out)["rows"]
    main_rows = [(r["k"], r["d"]) for r in rows if not r["supplementary"]]
    assert len(main_rows) == 15
    one_less = sorted(r["k"] for r in rows if r.get("comparison") == "one-less")
    assert one_less == [4, 14, 15, 18]


def _weakened_traces(tmp_path):
    """The shipped traces with those for Y and X*Y emptied: the rows k = 3
    and 4 fall 2 and 3 below the best known distance."""
    for trace in TRACES.glob("*.trace"):
        text = "" if trace.stem in ("s31", "s33") else trace.read_text()
        (tmp_path / trace.name).write_text(text)
    return str(tmp_path)


def test_table_labels_each_gap_by_its_size(tmp_path):
    traces = _weakened_traces(tmp_path)
    code, out = run_cli(["table", "--traces", traces])
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "[22, 3, 16]  best known 18 (2-less)"
    assert lines[3] == "[22, 4, 14]  best known 17 (3-less)"
    assert lines[9] == "[22, 14, 6]  best known 7 (one-less)"
    code, out = run_cli(["table", "--traces", traces, "--format", "json"])
    assert code == 0
    labels = {r["k"]: r["comparison"] for r in json.loads(out)["rows"] if "comparison" in r}
    assert labels == {1: "matches", 2: "matches", 3: "2-less", 4: "3-less", 8: "matches",
                      10: "matches", 11: "matches", 13: "matches", 14: "one-less",
                      15: "one-less", 17: "matches", 18: "one-less", 20: "matches"}


def test_table_labels_a_proved_d_above_the_best_known(monkeypatch):
    from kleincode import klein

    monkeypatch.setitem(klein.BEST_KNOWN_DISTANCE, 2, 18)
    code, out = run_cli(["table"])
    assert code == 0
    assert out.splitlines()[1] == "[22, 2, 19]  best known 18 (exceeds)"


def test_table_measured():
    code, out = run_cli(["table", "--measure-upto", "2", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    measured = {r["k"]: r for r in rows if "measured_d" in r}
    assert measured[1]["measured_d"] == 22 and measured[1]["exact"]
    assert measured[2]["measured_d"] == 19


def test_table_csv_carries_the_measured_distances():
    _, plain = run_cli(["table", "--format", "csv"])
    code, out = run_cli(["table", "--measure-upto", "2", "--format", "csv"])
    assert code == 0
    rows = json.loads(run_cli(["table", "--measure-upto", "2", "--format", "json"])[1])["rows"]
    lines = out.splitlines()
    assert plain.splitlines()[0] == "s,n,k,d,exact"
    assert lines[0] == "s,n,k,d,exact,measured_d"
    assert lines[1:] == [f"{r['s']},{r['n']},{r['k']},{r['d']},{str(r['exact']).lower()},"
                         f"{r.get('measured_d', '')}" for r in rows]
    assert lines[1:4] == ["22,22,1,22,true,22", "19,22,2,19,true,19", "18,22,3,18,false,"]
    # an unmeasured row is the default row with an empty measured_d
    assert [line[:-1] for line in lines[3:]] == plain.splitlines()[3:]


def test_table_measure_above_limit_refused_before_work(monkeypatch, capsys):
    from kleincode import cli, codes

    measured = []
    monkeypatch.setattr(cli, "min_distance",
                        lambda code, *a, **kw: measured.append(code.k) or (1, True))
    limit = codes.EXACT_LIMIT_COEFFS
    code, out = run_cli(["table", "--measure-upto", str(limit + 1)])
    assert (code, out, measured) == (2, "", [])
    assert "exact-scan limit" in capsys.readouterr().err
    code, _ = run_cli(["table", "--measure-upto", str(limit)])
    assert code == 0
    assert measured == [1, 2, 3, 4, 5, 7, 8, 10]


def test_table_measure_below_zero_refused(monkeypatch, capsys):
    from kleincode import cli

    monkeypatch.setattr(cli, "full_bound_map", lambda *a: pytest.fail("the table was built"))
    code, out = run_cli(["table", "--measure-upto", "-4"])
    assert (code, out) == (2, "")
    assert "argument --measure-upto: -4 is below 0" in capsys.readouterr().err


def test_oracle_sound_exit_zero():
    code, out = run_cli(["oracle", "--lm", "Y", "--mode", "exhaustive",
                         "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["min_weight"] == 18 and data["sound"] and data["exact"]


def test_oracle_sample_seeded():
    _, out1 = run_cli(["oracle", "--lm", "X^2*Y^2", "--mode", "sample",
                       "--seed", "9", "--format", "json"])
    _, out2 = run_cli(["oracle", "--lm", "X^2*Y^2", "--mode", "sample",
                       "--seed", "9", "--format", "json"])
    assert out1 == out2
    assert json.loads(out1)["exact"] is False


# argv, the csv header, and the json's rows for each subcommand that writes
# both; footprint's csv splits the exponents into x_exp and y_exp
CLASS_HEADER = "monomial,parameters,baseline,bound"
ORACLE_HEADER = "monomial,mode,coefficients,states,min_weight,exact,delta,sound"
CSV_RUNS = {
    "footprint": (["footprint"], "monomial,x_exp,y_exp,weight",
                  lambda d: [dict(m, x_exp=m["exponents"][0], y_exp=m["exponents"][1])
                             for m in d["monomials"]]),
    "variety": (["variety"], "x,y", lambda d: [{"x": x, "y": y} for x, y in d["points"]]),
    "bound": (["bound"], CLASS_HEADER, lambda d: d["classes"]),
    "bound-lm": (["bound", "--lm", "X^2*Y"], CLASS_HEADER, lambda d: d["classes"]),
    "bound-auto": (["bound", "--auto", "--lm", "Y"], CLASS_HEADER, lambda d: d["classes"]),
    "table": (["table"], "s,n,k,d,exact", lambda d: d["rows"]),
    "table-measured": (["table", "--measure-upto", "8"], "s,n,k,d,exact,measured_d",
                       lambda d: d["rows"]),
    "oracle-exhaustive": (["oracle", "--lm", "X*Y^2"], ORACLE_HEADER, lambda d: [d]),
    "oracle-sample": (["oracle", "--lm", "X^2*Y^2", "--mode", "sample", "--seed", "9"],
                      ORACLE_HEADER, lambda d: [d]),
    "trace-verify": (["trace-verify", str(TRACES / "s32.trace"), "--lm", "Y^2"],
                     CLASS_HEADER, lambda d: [d]),
}


@pytest.mark.parametrize("run", sorted(CSV_RUNS))
def test_csv_carries_the_json_fields(run):
    argv, header, json_rows = CSV_RUNS[run]
    code, out = run_cli([*argv, "--format", "json"])
    assert code == 0
    rows = json_rows(json.loads(out))
    _, out = run_cli([*argv, "--format", "csv"])
    lines = out.splitlines()
    assert lines[0] == header and len(lines) == len(rows) + 1
    columns = header.split(",")
    # a string as it is, a bool or a number as json writes it, a missing cell empty
    for line, row in zip(lines[1:], rows):
        assert dict(zip(columns, line.split(","), strict=True)) == {
            c: "" if c not in row else row[c] if isinstance(row[c], str)
            else json.dumps(row[c]) for c in columns}


@pytest.mark.parametrize("extra", [["--mode", "exhaustive"], []])
def test_oracle_exact_scan_refused(extra, capsys):
    code, out = run_cli(["oracle", "--lm", "X^6*Y^2", *extra])
    assert code == 2
    assert out == ""
    assert "8^21 = 9223372036854775808 states" in capsys.readouterr().err


def test_oracle_class_outside_footprint_named_as_monomial(capsys):
    code, out = run_cli(["oracle", "--lm", "X^8"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: X^8 outside the footprint\n"


def test_trace_verify_file():
    code, out = run_cli(["trace-verify", str(TRACES / "s34.trace"),
                         "--lm", "X^2*Y"])
    assert code == 0
    assert "verified bound 12" in out


def test_trace_verify_csv_is_the_bound_class_row():
    code, out = run_cli(["trace-verify", str(TRACES / "s34.trace"), "--lm", "X^2*Y",
                         "--format", "csv"])
    assert code == 0
    _, bound_csv = run_cli(["bound", "--lm", "X^2*Y", "--format", "csv"])
    assert out == bound_csv == "monomial,parameters,baseline,bound\nX^2*Y,7,10,12\n"


# Expressions past the parser's term cap, in the two parameters of Y:
# (1+a1+...+a1^7)*(1+a2+...+a2^7)*... with eight factors, and a sum of
# 32 000 parameter monomials (about 300 KB)
EIGHT_FACTORS = "*".join("(" + "+".join(["1"] + [f"a{1 + i % 2}^{e}" for e in range(1, 8)]) + ")"
                         for i in range(8))
LONG_PARAM_SUM = "+".join(f"a1^{1 + i % 7}*a2^{1 + i // 7 % 7}" for i in range(32_000))
LONG_MONOMIAL_SUM = "+".join(f"X^{i // 160}*Y^{i % 160}" for i in range(32_000))
SUM_3000 = "+".join(["a1*a2"] * 3000)  # below the term cap, but 17 999 characters

BAD_TRACES = {
    "parameter": ("branch a9 {\n  claim Y\n} else {\n  claim Y\n}\n",
                  "error: parameter a9 outside a1..a2\n"),
    "exponent": ("mul X^2000000\n", "error: exponent cap 1048576 exceeded\n"),
    "claim exponent": ("claim Y^2000000\n", "error: exponent cap 1048576 exceeded\n"),
    # past int()'s 4300-digit limit: refused by the cap, not by int()
    "exponent digits": ("mul Y^" + "9" * 5000 + "\n", "error: exponent cap 1048576 exceeded\n"),
    "parameter exponent digits": ("branch a1^" + "9" * 5000 + " {\n  claim Y\n} else {\n"
                                  "  claim Y\n}\n", "error: exponent cap 1048576 exceeded\n"),
    # X^8 = X on the curve, so no derivation needs the power; a huge one
    # would keep the replay busy for minutes
    "mul exponent": ("mul X^8\n", "error: bad mul step: 'mul X^8' has an exponent above 7\n"),
    # past int()'s 4300-digit limit: refused by the parser, not by int()
    "coefficient digits": ("branch " + "9" * 5000 + "*a1 {\n  claim Y\n} else {\n"
                           "  claim Y\n}\n",
                           "error: coefficient 999999999999... outside GF(8)\n"),
    "parameter digits": ("branch a" + "1" * 5000 + " {\n  claim Y\n} else {\n  claim Y\n}\n",
                         "error: parameter a11111111111... outside a1..a2\n"),
    # each mul is within bounds, but together they lift X past the replay cap
    "working exponent": ("mul X^7\n" * 3 + "red FX full\n",
                         "error: Y: mul X^7 lifts the working polynomial to exponent 22 "
                         "in X and 1 in Y, above the replay cap 15\n"),
    "missing operand": ("mul\n", "error: bad mul step: 'mul'\n"),
    "extra operand": ("claim Y extra\n", "error: bad claim step: 'claim Y extra'\n"),
    "extra restart operand": ("restart extra\n", "error: bad restart step: 'restart extra'\n"),
    # every step stays within the replay cap, but the length alone would
    # keep the replay busy
    "too many steps": ("mul X^7\nred FX full\n" * 1000,
                       "error: trace of 2000 lines, above the cap 1000\n"),
    # the file is read up to one character past the cap, never whole, so a
    # device or a pipe that never ends is refused too; read whole, this one
    # would replay as the empty trace
    "too many characters": ("#" * (TRACE_CHAR_CAP + 1),
                            "error: trace file longer than the cap of 1048576 characters\n"),
    # eight factors of 8 terms each would expand to 8^8 terms: refused at
    # the fifth, before it is multiplied
    "long product": ("branch " + EIGHT_FACTORS + " {\n  claim Y\n} else {\n  claim Y\n}\n",
                     "error: product of 4096 by 8 terms, above the cap 4096\n"),
    "long sum": ("branch " + LONG_PARAM_SUM + " {\n  claim Y\n} else {\n  claim Y\n}\n",
                 "error: sum of 4097 terms, above the cap 4096\n"),
    # the parser would recurse three frames per level, past Python's limit
    "nested parentheses": ("branch " + "(" * 400 + "a1" + ")" * 400 + " {\n  claim Y\n"
                           "} else {\n  claim Y\n}\n",
                           "error: parentheses nested deeper than the cap 16\n"),
    # a long line or expression is quoted cut short, not whole
    "long branch line": ("branch " + SUM_3000 + "\n",
                         "error: branch line must end with '{': "
                         "'branch a1*a2+a1*a2+a1*a2+a1*a2+a1*a2+a1*...'\n"),
    "long claim line": ("claim" + " Y" * 3000 + "\n",
                        "error: bad claim step: 'claim Y Y Y Y Y Y Y Y Y Y Y Y Y Y Y Y Y ...'\n"),
    "long expression in X": ("branch X+" + SUM_3000 + " {\n  claim Y\n} else {\n  claim Y\n}\n",
                             "error: branch expression 'X+a1*a2+a1*a2+a1*a2+a1*a2+a1*a2+a1*a2+a1...' "
                             "mentions X or Y\n"),
}


@pytest.mark.parametrize("kind", sorted(BAD_TRACES))
def test_trace_verify_malformed_input_exit_two(kind, tmp_path, capsys):
    text, message = BAD_TRACES[kind]
    path = tmp_path / "bad.trace"
    path.write_text(text)
    start = time.perf_counter()
    code, out = run_cli(["trace-verify", str(path), "--lm", "Y"])
    assert time.perf_counter() - start < 1.0  # refused at once, however long
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("kind", sorted(BAD_TRACES))
def test_bound_malformed_trace_dir_exit_two(kind, tmp_path, capsys):
    copy_shipped_traces(tmp_path)
    text, message = BAD_TRACES[kind]
    (tmp_path / "s31.trace").write_text(text)
    start = time.perf_counter()
    code, out = run_cli(["bound", "--traces", str(tmp_path)])
    assert time.perf_counter() - start < 1.0  # refused at once, however long
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == message


def test_long_trace_past_the_replay_cap_refused_at_once(tmp_path, capsys):
    # 999 lines, within the cap on a trace's length: the cap on the working
    # polynomial refuses the third mul X^7, before the rest is replayed
    path = tmp_path / "long.trace"
    path.write_text("mul X^7\n" * 998 + "red FX full\n")
    start = time.perf_counter()
    code, out = run_cli(["trace-verify", str(path), "--lm", "X^6*Y^2"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: X^6*Y^2: mul X^7 lifts the working polynomial to exponent 21 in X "
        "and 2 in Y, above the replay cap 15\n")


def _cli_process(argv, **kw):
    """The CLI in a fresh interpreter, for an input that could block it."""
    env = dict(os.environ, PYTHONPATH=str(TRACES.parent.parent))
    return subprocess.run([sys.executable, "-m", "kleincode.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=10, **kw)


@pytest.mark.parametrize("command", ["trace-verify", "bound"])
def test_fifo_without_a_writer_reads_as_an_empty_trace(command, tmp_path):
    # opened for reading, a FIFO waits for a writer; this one never gets one
    copy_shipped_traces(tmp_path)
    argv = {"trace-verify": ["trace-verify", str(tmp_path / "s31.trace"), "--lm", "Y"],
            "bound": ["bound", "--traces", str(tmp_path)]}[command]
    (tmp_path / "s31.trace").write_text("")
    empty = run_cli(argv)
    (tmp_path / "s31.trace").unlink()
    os.mkfifo(tmp_path / "s31.trace")
    run = _cli_process(argv)
    assert (run.returncode, run.stdout, run.stderr) == (*empty, "")


def test_trace_verify_reads_a_pipe_on_dev_stdin():
    trace = TRACES / "s32.trace"
    run = _cli_process(["trace-verify", "/dev/stdin", "--lm", "Y^2"], input=trace.read_text())
    assert (run.returncode, run.stdout, run.stderr) == (
        *run_cli(["trace-verify", str(trace), "--lm", "Y^2"]), "")


@pytest.mark.parametrize("command", ["trace-verify", "bound"])
def test_trace_not_utf8_refused_by_name(command, tmp_path, capsys):
    copy_shipped_traces(tmp_path)
    bad = tmp_path / "s33.trace"
    # the offset counts bytes: two for the CR LF and two for the "é"
    bad.write_bytes("# café\r\n".encode() + b"\xff\n")
    argv = {"trace-verify": ["trace-verify", str(bad), "--lm", "X*Y"],
            "bound": ["bound", "--traces", str(tmp_path)]}[command]
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 at byte 9\n"


def test_shipped_traces_replay_unchanged():
    golden = {entry["monomial"]: entry for entry in
              json.loads(GOLDEN.joinpath("bound.json").read_text())["classes"]}
    for M, name in TRACED_CLASSES.items():
        lm = format_monomial(M)
        code, out = run_cli(["trace-verify", str(TRACES / f"{name}.trace"), "--lm", lm,
                             "--format", "json"])
        assert code == 0
        assert json.loads(out) == golden[lm]


def test_trace_verify_failed_replay_exit_one(capsys):
    # s31 is the derivation for Y; replayed for X its first reduction by the
    # curve has nothing to cancel
    code, out = run_cli(["trace-verify", str(TRACES / "s31.trace"), "--lm", "X"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "verification failed: X: red K head changed nothing\n"


@pytest.mark.parametrize("var", ["X", "Y"])
def test_bound_exponent_with_too_many_digits_refused(var, capsys):
    code, out = run_cli(["bound", "--lm", f"{var}^" + "9" * 5000])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: exponent cap 1048576 exceeded\n"


def test_bound_zero_padded_exponent_is_read_without_its_zeros(capsys):
    zeros = "0" * 5000
    assert run_cli(["bound", "--lm", f"X^{zeros}1"]) == run_cli(["bound", "--lm", "X"])
    code, out = run_cli(["bound", "--lm", f"X^{zeros}1"])
    assert (code, out.splitlines()[0]) == (0, "X: bound 19 (baseline 19, 1 leaves)")
    code, out = run_cli(["bound", "--lm", f"X^{zeros}1048577"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.endswith("error: exponent cap 1048576 exceeded\n")


def test_trace_verify_zero_padded_numbers(tmp_path):
    # s31 with every number of its steps zero-padded past int()'s limit
    zeros = "0" * 5000
    text = (TRACES / "s31.trace").read_text()
    padded = (text.replace("mul Y^2", f"mul Y^{zeros}2")
              .replace("branch a1 {", f"branch a{zeros}1 {{")
              .replace("branch a2 {", f"branch {zeros}1+a2^{zeros}1+{zeros}1 {{"))
    assert padded.count(zeros) == 5
    path = tmp_path / "padded.trace"
    path.write_text(padded)
    want = run_cli(["trace-verify", str(TRACES / "s31.trace"), "--lm", "Y"])
    assert want[0] == 0
    assert run_cli(["trace-verify", str(path), "--lm", "Y"]) == want


def test_bound_sum_past_the_term_cap_refused_at_once(capsys):
    start = time.perf_counter()
    code, out = run_cli(["bound", "--lm", LONG_MONOMIAL_SUM])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: sum of 4097 terms, above the cap 4096\n"


def test_bound_non_monomial_quoted_short(capsys):
    code, out = run_cli(["bound", "--lm", "+".join(f"X^{i}" for i in range(4000))])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: 'X^0+X^1+X^2+...' is not a monomial\n"


def test_bound_coefficient_with_too_many_digits_refused(capsys):
    code, out = run_cli(["bound", "--lm", "9" * 5000 + "*X"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: coefficient 999999999999... outside GF(8)\n"


@pytest.mark.parametrize("extra", [[], ["--auto"]])
def test_bound_class_outside_footprint_refused(extra, capsys):
    code, out = run_cli(["bound", *extra, "--lm", "X^8"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: X^8 outside the footprint\n"


@pytest.mark.parametrize("extra", [["--format", "text"], ["--format", "json"], ["--auto"]])
def test_bound_empty_class_refused_before_any_work(extra, monkeypatch, capsys):
    from kleincode import autosearch, cli

    monkeypatch.setattr(cli, "verify_all_traces", lambda *a: pytest.fail("a replay ran"))
    monkeypatch.setattr(autosearch, "auto_search", lambda *a: pytest.fail("a search ran"))
    code, out = run_cli(["bound", *extra, "--lm", ""])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: empty term\n"


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        run_cli_raw = __import__("kleincode.cli", fromlist=["main"]).main
        run_cli_raw(["oracle"])  # missing required --lm
    assert exc.value.code == 2


def test_unknown_flag_exit_two():
    code, _ = run_cli(["footprint", "--bogus"])
    assert code == 2


def test_missing_trace_file_reports_error():
    code, _ = run_cli(["trace-verify", "/nonexistent.trace", "--lm", "Y"])
    assert code == 2


def test_outputs_byte_stable():
    for argv in (["footprint", "--format", "json"],
                 ["bound", "--format", "json"],
                 ["table", "--format", "json"]):
        _, a = run_cli(argv)
        _, b = run_cli(argv)
        assert a == b


def test_verify_all_quick_deterministic():
    code1, out1 = run_cli(["verify-all", "--quick", "--seed", "42"])
    assert code1 == 0
    assert "PASS" in out1
    code2, out2 = run_cli(["verify-all", "--quick", "--seed", "42"])
    assert out1 == out2


def test_global_flags_before_subcommand(monkeypatch):
    code, out = run_cli(["--format", "json", "table"])
    assert code == 0
    assert out == GOLDEN.joinpath("table.json").read_text()
    from kleincode import cli

    seen = []
    monkeypatch.setattr(cli, "coset_min_weight",
                        lambda *a, **kw: seen.append((kw["seed"], kw["count"])) or (18, False))
    oracle = ["oracle", "--lm", "Y", "--mode", "sample"]
    assert run_cli(["--seed", "9", *oracle])[0] == 0
    # a flag after the subcommand wins over the same flag before it
    assert run_cli(["--seed", "9", *oracle, "--seed", "11"])[0] == 0
    assert seen == [(9, cli.SAMPLE_COUNT), (11, cli.SAMPLE_COUNT)]


def test_no_second_input_path(tmp_path, monkeypatch, capsys):
    """The flags are the only inputs: --config is not an option, and the
    environment sets nothing."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": -1, "sample_count": 0}')
    runs = (["variety"], ["oracle", "--lm", "Y", "--mode", "sample", "--seed", "9",
                          "--format", "json"])
    plain = [run_cli(argv) for argv in runs]
    monkeypatch.setenv("KLEINCODE_CONFIG", str(cfg))
    assert [run_cli(argv) for argv in runs] == plain
    assert all(code == 0 for code, _ in plain)
    capsys.readouterr()

    from kleincode import cli

    monkeypatch.setattr(cli, "coset_min_weight", lambda *a, **kw: pytest.fail("a scan ran"))
    for argv in runs:
        assert run_cli([*argv, "--config", str(cfg)]) == (2, "")
        assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_seed_outside_64_bits_refused(monkeypatch, capsys):
    from kleincode import cli

    # SplitMix64 keeps 64 bits of its seed: -1, 2^64 - 1 and 2^65 - 1 would
    # all draw the same messages
    seen = []
    monkeypatch.setattr(cli, "coset_min_weight",
                        lambda *a, **kw: seen.append(kw["seed"]) or (18, False))
    oracle = ["oracle", "--lm", "Y", "--mode", "sample"]
    for seed in (-1, 2 ** 64, 2 ** 65 - 1):
        assert run_cli([*oracle, "--seed", str(seed)]) == (2, "")
        err = capsys.readouterr().err
        assert f"argument --seed: seed is {seed}, outside 0..2^64 - 1" in err, err
    for seed in (0, 2 ** 64 - 1):
        assert run_cli([*oracle, "--seed", str(seed)])[0] == 0
    assert seen == [0, 2 ** 64 - 1]


def test_bound_soundness_keeps_every_seed_bit(monkeypatch):
    from kleincode import verify

    # --seed 5 and --seed 5 + 2^56 differ only in bit 56: each class must
    # still draw from a different seed, below 2^64, under the two
    drawn = []
    monkeypatch.setattr(verify, "sampled_min_weight",
                        lambda offset, rows, seed, count: drawn.append(seed) or 22)
    for seed in (5, 5 + 2 ** 56):
        assert verify.suite_bound_soundness(seed, True) == (True, "2000 samples x 22 classes")
    first, second = drawn[:22], drawn[22:]
    assert len(set(first)) == len(set(second)) == 22
    assert all(a != b for a, b in zip(first, second))
    assert max(drawn) < 2 ** 64


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_all_refuses_other_formats_before_any_suite(fmt, monkeypatch, capsys):
    from kleincode import verify

    monkeypatch.setattr(verify, "run_suites", lambda **kw: pytest.fail("a suite ran"))
    code, out = run_cli(["verify-all", "--quick", "--format", fmt])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: verify-all prints text only, not --format {fmt}\n"


@pytest.mark.parametrize("argv", [["oracle", "--lm", "Y", "--mode", "gray"],
                                  ["oracle", "--lm", "Y", "--jobs", "2"],
                                  ["verify-all", "--quick", "--jobs", "2"]])
def test_removed_flags_exit_two(argv, monkeypatch):
    # neither --mode gray nor --jobs is a command-line choice
    from kleincode import cli, verify

    monkeypatch.setattr(cli, "coset_min_weight", lambda *a, **kw: pytest.fail("a scan ran"))
    monkeypatch.setattr(verify, "run_suites", lambda **kw: pytest.fail("a suite ran"))
    assert run_cli(argv) == (2, "")


def test_consecutive_calls_share_no_state(monkeypatch, capsys):
    # main parses with one parser per process; nothing one call parses may
    # reach the next, not even from a call that argparse refuses
    from kleincode import cli

    assert cli._parser() is cli._parser()
    text = run_cli(["footprint"])
    assert run_cli(["footprint", "--format", "json"])[1].startswith("{")
    assert run_cli(["footprint"]) == text
    seen = []
    monkeypatch.setattr(cli, "cmd_footprint",
                        lambda args: seen.append((args.format, args.seed)) or 0)
    assert run_cli(["footprint", "--format", "csv", "--seed", "7"]) == (0, "")
    assert run_cli(["footprint"]) == (0, "")
    assert run_cli(["footprint", "--format", "xml", "--seed", "9"]) == (2, "")
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    assert run_cli(["--seed", "3", "footprint"]) == (0, "")
    assert run_cli(["footprint"]) == (0, "")
    assert seen == [("csv", 7), ("text", 42), ("text", 3), ("text", 42)]


def test_readme_cli_examples_parse(monkeypatch):
    # every kleincode line of the sh block under README's "## CLI" must
    # parse; the handlers are stubbed, so only argparse runs
    from kleincode import cli

    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("kleincode ")]
    assert lines
    for name in dir(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, lambda args: 0)
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "kleincode"
        assert run_cli(argv[1:])[0] == 0, line


def test_verify_all_times_each_suite_on_stderr(capsys):
    code, out = run_cli(["verify-all", "--quick", "--seed", "42"])
    err = capsys.readouterr().err
    *rows, verdict = out.splitlines()
    assert code == 0 and verdict == "PASS (0 failing suites)"
    suites = [row[5:].split(":")[0] for row in rows]
    assert len(suites) == 16 and all(row.startswith("ok   ") for row in rows)
    timed = [re.fullmatch(r"([a-z0-9-]+): (\d+\.\d{3}) s", line) for line in err.splitlines()]
    assert all(timed) and [m.group(1) for m in timed] == suites
    # the timings stay off stdout, which two runs reproduce byte for byte
    assert " s\n" not in out
    assert run_cli(["verify-all", "--quick", "--seed", "42"])[1] == out
