import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import weylinv
from weylinv import smoothness
from weylinv.cache import clear_caches
from weylinv.cli import TABLE1, main
from weylinv.smoothness import exceptional_element
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


@pytest.mark.parametrize("checks", (",", ""))
def test_audit_empty_check_name_is_an_input_error(capsys, checks):
    # "" used to run all four checks and "," to report "unknown checks: "
    code, out, err = run(capsys, "audit", "A3", "--checks", checks, "--json")
    assert code == 2
    assert out == ""
    assert "empty check name" in err


def test_audit_program_error_is_not_a_guard_refusal(capsys, monkeypatch):
    # only the group-size guard exits 4 (test_audit_guard_refuses_large_group);
    # any other ValueError is a fault
    def fault(w):
        raise ValueError("injected fault")

    monkeypatch.setattr(smoothness, "rationally_smooth", fault)
    with pytest.raises(ValueError, match="injected fault"):
        main(["audit", "A3", "--json"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("sample_j", ("-1", "0"))
def test_audit_sample_j_below_one_is_an_input_error(capsys, sample_j):
    code, out, err = run(capsys, "audit", "A3", "--sample-j", sample_j, "--json")
    assert code == 2
    assert out == ""
    assert "--sample-j" in err


def test_certify_unwritable_out_is_an_input_error(tmp_path, capsys):
    # a directory cannot be opened for writing: a stated reason, no traceback
    code, out, err = run(capsys, "certify", "A3", "1", "2", "1", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("cannot write certificate:")
    assert list(tmp_path.iterdir()) == []


def test_certify_verify_exceptional_e6(tmp_path, capsys):
    # w_65 has no chain BP decomposition (criterion 7), so only the freeness
    # search can certify it; about 3 s from cold caches
    clear_caches()
    word = [str(s + 1) for s in exceptional_element(6, 5).word()]
    cert = str(tmp_path / "w65.json")
    t0 = time.monotonic()
    code, _, err = run(capsys, "certify", "E6", *word, "--out", cert)
    assert code == 0
    assert err == f"coexponents: {list(TABLE1[(6, 5)])}\n"
    code, out, _ = run(capsys, "verify", "E6", *word, "--cert", cert)
    assert time.monotonic() - t0 < 30
    assert code == 0
    assert out == f"accept: coexponents {list(TABLE1[(6, 5)])}\n"


def test_certify_verify_exceptional_e7_w75(tmp_path, capsys):
    # Table 1's E7 row on the arrangement side: w_75 has no chain BP
    # decomposition either; about 10 s from cold caches on 2 cores
    clear_caches()
    word = [str(s + 1) for s in exceptional_element(7, 5).word()]
    cert = str(tmp_path / "w75.json")
    try:
        t0 = time.monotonic()
        code, _, err = run(capsys, "certify", "E7", *word, "--out", cert)
        assert code == 0
        assert err == f"coexponents: {list(TABLE1[(7, 5)])}\n"
        code, out, _ = run(capsys, "verify", "E7", *word, "--cert", cert)
        assert time.monotonic() - t0 < 60
        assert code == 0
        assert out == f"accept: coexponents {list(TABLE1[(7, 5)])}\n"
    finally:
        clear_caches()


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


# sha256 of the stdout of each command, recorded in fresh processes before
# the Bruhat intervals were built from their prefixes; a change that keeps
# outputs byte-identical leaves every digest as it is
GOLDEN = {
    "audit A3 --json":
        "6f50d92d5822b16ca8c1d149fc0c767906f0354b0ebbb14b030c7c76cd08bb02",
    "audit B3 --json":
        "0e9b80cfcdd6549fb81243c59debf1dd5a9ad62a20484c1f9c46587b43fdbabd",
    "audit C3 --json":
        "67b3e70c5a60c38a6fb1ef8db4fa6cf08f6c7d07c9f99679203f326acc5e8120",
    "audit G2 --json":
        "f94d172099b1eb6f170706ddfe84bbeb5d40f0071d5046e6eca7fa7e48c10734",
    "audit D4 --checks supersolvable,hlss --json":
        "f47f7a01622a851f1f94ed2d65ec0b67e2c0816a93f46f3d8524e07628f7c30e",
    "audit B4 --checks supersolvable,hlss --json":
        "bac4d4955ce7389f3c3cdacec942c699f253fc5d01208301a7944bcb18731afa",
    "audit D4 --sample-j 12 --seed 3 --json":
        "53b8c01708406c96f417558649b6a9aef3f83a6fde3fee7d2e2eb05bf501bd1b",
    "analyze B4 1 2 3 4 3 2 1 --json":
        "5e15cbc182cebcf71a2b3e51cc2985e50c0f3c661035f6a7a610990d249d789f",
    "analyze B4 4 3 2 3 4 1 2 --json":
        "150061874179a91ae0b2e2e0176ae9f2b293e3f4eb4e6a33b5ad67b836ac4a2f",
    "analyze D5 1 2 3 4 5 3 2 1 --json":
        "9ece1e1cccae4c6a4e1b3bc42bd4652e5a7e73423bcf5a65f32325c4ddbd74ef",
    "analyze D5 2 3 5 4 3 2 --json":
        "964a1de09d2fb1c387098809a9b75da43047f686fc7f6343813a79eddc3993d8",
    "analyze F4 2 3 2 3 4 3 2 --json":
        "bd495dccf023d34e5af77f983ca7dfaf6538af0f230317e3a8b2f43c5c1e007f",
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_golden_output_digests(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
