import json
import os
import subprocess
import sys
import time

import pytest

import weylinv
from weylinv.cli import main
from weylinv.weyl import WeylGroup, longest_element

SRC = os.path.dirname(os.path.dirname(os.path.abspath(weylinv.__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_free_example(capsys):
    code, out, _ = run(capsys, "analyze", "A3", "2", "3", "2", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["length"] == 4
    assert report["poincare"] == [1, 3, 4, 3, 1]
    assert report["q_poly"] == [1, 4, 5, 2]
    assert report["exponents"] == [1, 1, 2]
    assert report["freeness"] == "free"
    assert report["coexponents"] == [1, 1, 2]
    assert report["palindromic"] is True
    assert report["hlss"] is True
    assert report["supersolvable"] is True
    assert report["pattern_hits"] == []
    assert report["chain_bp_tree"] is not None


def test_analyze_non_smooth_example(capsys):
    code, out, _ = run(capsys, "analyze", "A3", "2", "3", "1", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["poincare"] == [1, 3, 5, 4, 1]
    assert report["q_poly"] == [1, 4, 6, 3]
    assert report["exponents"] is None
    assert report["freeness"] == "not_inductively_free"
    assert report["q_linear_factors"] is None
    assert report["supersolvable"] is False
    assert report["chain_bp_tree"] is None
    assert "A3-3412" in report["pattern_hits"]


def test_analyze_identity(capsys):
    code, out, _ = run(capsys, "analyze", "A3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["length"] == 0
    assert report["word"] == []
    assert report["q_poly"] == [1]
    assert report["coexponents"] == [0, 0, 0]


def test_analyze_text_output(capsys):
    code, out, _ = run(capsys, "analyze", "A3", "1")
    assert code == 0
    assert "length: 1" in out


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "analyze", "B3", "3", "2", "3", "--json")
    _, out2, _ = run(capsys, "analyze", "B3", "3", "2", "3", "--json")
    assert out1 == out2


def test_unknown_system_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "Z9")
    assert code == 3
    assert err


def test_bad_word_exit_code(capsys):
    assert run(capsys, "analyze", "A3", "9")[0] == 2
    assert run(capsys, "analyze", "A3", "0")[0] == 2


def test_threads_validation(capsys):
    # --threads did nothing and is gone: argparse refuses it as unknown
    for argv in (["--threads", "4", "analyze", "A3", "1"],
                 ["analyze", "A3", "1", "--threads", "4"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "weylinv: error:" in capsys.readouterr().err


def fresh_process(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "weylinv.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_consecutive_calls_match_fresh_processes(capsys):
    # the parser is built once per process; later calls must not see earlier ones
    calls = [("analyze", "B3", "3", "2", "3", "--json"),
             ("audit", "A2", "--checks", "hlss", "--json"),
             ("patterns", "A3", "2", "1", "3", "2", "--json"),
             ("analyze", "A3", "1")]
    for argv in calls:
        assert run(capsys, *argv) == fresh_process(*argv)


def test_audit_small_group(capsys):
    code, out, _ = run(capsys, "audit", "A3", "--json", "--checks",
                       "free_interval,hlss")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 24
    assert report["counterexamples"] == []


def test_audit_sampled_options(capsys):
    # the benchmark's audit items pass --seed; --sample-j samples (side, J) pairs
    argv = ("audit", "D4", "--sample-j", "12", "--seed", "3", "--json")
    code, out, err = run(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["modular_coatom"] == 192
    assert report["counterexamples"] == []
    assert (code, out, err) == fresh_process(*argv)


def test_audit_guard_refuses_large_group(capsys):
    code, _, err = run(capsys, "audit", "E8")
    assert code == 4
    assert "override" in err


def test_analyze_guard_refuses_large_interval(capsys):
    # [e, w0] of E8 has |W(E8)| = 696729600 elements; refused before it is built
    word = [str(s + 1) for s in longest_element(WeylGroup.get("E8")).word()]
    t0 = time.monotonic()
    code, out, err = run(capsys, "analyze", "E8", *word)
    assert time.monotonic() - t0 < 30
    assert code == 4
    assert out == ""
    assert "100000" in err


def test_analyze_guard_admits_small_interval(capsys):
    # [e, s1 ... s8] has at most 2^8 elements, so the guard lets it through, and
    # the pattern scan visits only subspaces spanned by inversions of w
    for word in (["E8", "1", "2", "3", "4", "5", "6", "7", "8"], ["E7", "1"]):
        t0 = time.monotonic()
        code, out, _ = run(capsys, "analyze", *word, "--json")
        assert time.monotonic() - t0 < 30
        assert code == 0
        report = json.loads(out)
        assert report["pattern_hits"] == []
        assert report["palindromic"] is True
        assert report["freeness"] == "free"


def test_tables_short(capsys):
    for which in ("1", "2", "3"):
        code, out, _ = run(capsys, "tables", which)
        assert code == 0
        assert "FAIL" not in out
        assert "PASS" in out


def test_certify_verify_round_trip(tmp_path, capsys):
    cert = tmp_path / "w0.json"
    code, _, err = run(capsys, "certify", "A3", "1", "2", "1", "3", "2", "1",
                       "--out", str(cert))
    assert code == 0
    assert "coexponents: [1, 2, 3]" in err
    code, out, _ = run(capsys, "verify", "A3", "1", "2", "1", "3", "2", "1",
                       "--cert", str(cert))
    assert code == 0
    assert "accept" in out and "[1, 2, 3]" in out


def test_verify_rejects_truncated_file(tmp_path, capsys):
    cert = tmp_path / "w0.json"
    run(capsys, "certify", "A3", "1", "2", "1", "3", "2", "1", "--out", str(cert))
    text = cert.read_text()
    cert.write_text(text[: len(text) // 2])
    code, _, err = run(capsys, "verify", "A3", "1", "2", "1", "3", "2", "1",
                       "--cert", str(cert))
    assert code == 2
    assert "malformed" in err


def test_verify_rejects_header_mismatch(tmp_path, capsys):
    cert = tmp_path / "w0.json"
    run(capsys, "certify", "A3", "1", "2", "1", "3", "2", "1", "--out", str(cert))
    code, _, err = run(capsys, "verify", "A3", "1", "2", "1", "--cert", str(cert))
    assert code == 2
    assert "header" in err


def test_verify_rejects_tampered_pivot(tmp_path, capsys):
    cert = tmp_path / "w0.json"
    run(capsys, "certify", "A3", "1", "2", "1", "3", "2", "1", "--out", str(cert))
    obj = json.loads(cert.read_text())
    obj["certificate"]["pivot"] = [9, 9, 9]
    cert.write_text(json.dumps(obj))
    code, _, err = run(capsys, "verify", "A3", "1", "2", "1", "3", "2", "1",
                       "--cert", str(cert))
    assert code == 5
    assert "reject" in err


def test_verify_rejects_non_integer_pivot_entries(tmp_path, capsys):
    # int() would truncate 0.5 to 0 and turn true into 1, giving the real pivot
    for bad in ([0.5, 0, 1], [0, 0, True], [0, 0, 1.0]):
        cert = tmp_path / "w0.json"
        run(capsys, "certify", "A3", "1", "2", "1", "3", "2", "1", "--out", str(cert))
        obj = json.loads(cert.read_text())
        assert obj["certificate"]["pivot"] == [0, 0, 1]
        obj["certificate"]["pivot"] = bad
        cert.write_text(json.dumps(obj))
        code, out, err = run(capsys, "verify", "A3", "1", "2", "1", "3", "2", "1",
                             "--cert", str(cert))
        assert code == 5, bad
        assert out == ""
        assert "pivot entries must be integers" in err


def test_verify_deeply_nested_file_is_an_input_error(tmp_path, capsys):
    cert = tmp_path / "deep.json"
    cert.write_text("[" * 100000 + "]" * 100000)
    code, _, err = run(capsys, "verify", "A3", "1", "--cert", str(cert))
    assert code == 2
    assert "malformed certificate file" in err


def test_audit_unknown_check_is_an_input_error(capsys):
    code, out, err = run(capsys, "audit", "A2", "--checks", "hlss,bogus", "--json")
    assert code == 2
    assert out == ""
    assert "bogus" in err


def test_certify_refuses_non_free_element(capsys):
    code, _, err = run(capsys, "certify", "A3", "2", "3", "1", "2")
    assert code == 5
    assert "not inductively free" in err


def test_patterns_3412(capsys):
    code, out, _ = run(capsys, "patterns", "A3", "2", "1", "3", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["permutation"] == [3, 4, 1, 2]
    assert report["chordal"] is False
    assert report["inversion_graph_edges"] == [[1, 3], [1, 4], [2, 3], [2, 4]]
    assert report["avoids"]["3412"] is False
    assert report["avoids"]["4231"] is True


def test_patterns_rejects_non_type_a(capsys):
    assert run(capsys, "patterns", "B3", "1")[0] == 2
