"""Oracle tests for the command-line interface.

Most tests invoke ``silt.cli.main`` in-process so that the expensive
enumeration caches are shared with the rest of the suite; a couple of
subprocess smoke tests check the installed entry point end to end.
"""

import hashlib
import json
import subprocess
import sys
from importlib.resources import files

import pytest

import silt.cli as cli
from silt.cli import main
from silt.quivers import parse_quiver
from silt.modules import ar_quiver_mod
from silt.silting import silting_alg2
from silt.classify import classify, dedupe, summary_csv

FIXDIR = files("silt").joinpath("fixtures")


def fx(name: str) -> str:
    return str(FIXDIR / f"{name}.quiver")


def run_cli(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# --- ar command ---

def test_ar_two_term_ascii_a2_has_five_vertices(capsys):
    rc, out, _ = run_cli(capsys, "ar", fx("a2"), "--two-term")
    assert rc == 0
    assert out.count("∘") == 5
    assert "•" not in out


def test_ar_mod_ascii_a2_has_three_vertices(capsys):
    rc, out, _ = run_cli(capsys, "ar", fx("a2"))
    assert rc == 0
    assert out.count("∘") == 3


def test_ar_dot_d4_has_twelve_vertices(capsys):
    rc, out, _ = run_cli(capsys, "ar", fx("d4"), "--format", "dot")
    assert rc == 0
    assert out.startswith("digraph ar {")
    assert out.count("shape=plaintext") == 12


def test_ar_json_a3(capsys):
    rc, out, _ = run_cli(capsys, "ar", fx("a3_linear"), "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["two_term"] is False
    assert len(payload["vertices"]) == 6
    assert payload["arrows"]
    assert set(payload["layout"]) == set(payload["vertices"])


def test_ar_csv_a3_row_counts(capsys):
    rc, out, _ = run_cli(capsys, "ar", fx("a3_linear"), "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,source,target"
    ar = ar_quiver_mod(parse_quiver("vertices 1 2 3\narrow a:1->2\narrow b:2->3\n"))
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds.count("arrow") == len(ar.arrows)
    assert kinds.count("tau") == len(ar.tau_pairs)


# --- input errors and exit codes ---

def test_missing_file_exits_2(capsys):
    rc, _, err = run_cli(capsys, "ar", "/no/such/file.quiver")
    assert rc == 2
    assert "error" in err


def test_bad_syntax_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.quiver"
    bad.write_text("vertices x y\n")
    rc, _, err = run_cli(capsys, "silting", str(bad))
    assert rc == 2
    assert "error" in err


def test_oriented_cycle_exits_3(tmp_path, capsys):
    cyc = tmp_path / "cyc.quiver"
    cyc.write_text("vertices 1 2\narrow a:1->2\narrow b:2->1\n")
    rc, _, err = run_cli(capsys, "silting", str(cyc))
    assert rc == 3


def test_non_dynkin_underlying_graph_exits_3(tmp_path, capsys):
    square = tmp_path / "square.quiver"
    square.write_text(
        "vertices 1 2 3 4\narrow a:1->2\narrow b:2->3\narrow c:3->4\narrow d:1->4\n"
    )
    rc, _, err = run_cli(capsys, "classify", str(square))
    assert rc == 3


def test_jobs_flag_is_rejected_exits_2(capsys):
    rc, _, err = run_cli(capsys, "classify", fx("a2"), "--jobs", "2")
    assert rc == 2
    assert "--jobs" in err


def test_help_exits_0(capsys):
    rc, out, _ = run_cli(capsys, "--help")
    assert rc == 0
    assert "paper-suite" in out


def test_internal_check_failure_names_command_and_quiver(monkeypatch, capsys):
    def boom(q):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "silting_alg2", boom)
    rc, out, err = run_cli(capsys, "classify", fx("a2"))
    assert rc == 1
    assert out == ""
    assert "classify" in err and fx("a2") in err and "boom" in err


# --- silting command ---

def test_silting_ascii_a3(capsys):
    rc, out, _ = run_cli(capsys, "silting", fx("a3_linear"))
    assert rc == 0
    assert out.splitlines()[0] == "silting objects: 14"
    assert out.count("#") == 14
    assert out.count("•") == 14 * 3


def test_silting_json_d5_count(capsys):
    rc, out, _ = run_cli(capsys, "silting", fx("d5"), "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 182
    assert len(payload["objects"]) == 182


def test_tilting_only_json_a3(capsys):
    rc, out, _ = run_cli(
        capsys, "silting", fx("a3_linear"), "--tilting-only", "--format", "json"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    assert len(payload["modules"]) == 5


def test_silting_csv_a3(capsys):
    rc, out, _ = run_cli(capsys, "silting", fx("a3_linear"), "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,shifted,modules"
    assert len(lines) == 1 + 14


def test_silting_oracle_a4_passes(capsys):
    rc, out, _ = run_cli(capsys, "silting", fx("a4_linear"), "--oracle")
    assert rc == 0
    assert out.splitlines()[0] == "silting objects: 42"


def test_silting_dot_unsupported_exits_2(capsys):
    rc, _, err = run_cli(capsys, "silting", fx("a2"), "--format", "dot")
    assert rc == 2
    assert "format" in err


def test_oracle_mismatch_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "silting_bruteforce", lambda q: ())
    rc, _, err = run_cli(capsys, "silting", fx("a2"), "--oracle")
    assert rc == 1
    assert "oracle" in err


def test_bundled_fixture_resolved_by_name(capsys):
    rc, out, _ = run_cli(capsys, "silting", "a2", "--format", "json")
    assert rc == 0
    assert json.loads(out)["count"] == 5


# --- classify command ---

def test_classify_csv_matches_library(capsys):
    rc, out, _ = run_cli(capsys, "classify", fx("a3_linear"), "--format", "csv")
    assert rc == 0
    q = parse_quiver("vertices 1 2 3\narrow a:1->2\narrow b:2->3\n")
    groups = dedupe([classify(q, t) for t in silting_alg2(q)])
    assert out == summary_csv(groups)
    assert len(out.strip().splitlines()) == 1 + 5


def test_classify_ascii_a3_alt(capsys):
    rc, out, _ = run_cli(capsys, "classify", fx("a3_alt"))
    assert rc == 0
    assert "objects: 14" in out
    assert "classes: 6" in out
    assert "strictly shod: 0" in out
    assert "families:" in out


def test_classify_json_a2(capsys):
    rc, out, _ = run_cli(capsys, "classify", fx("a2"), "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    assert payload["class_count"] == 2
    assert payload["families"] == {"A1⊔A1": 1, "A2": 1}
    assert len(payload["records"]) == 5


# sha256 of stdout, frozen from an earlier release: refactors must keep
# every report byte-identical, not just identical from run to run.
FROZEN_DIGESTS = {
    ("a3_alt", "classify", "--format", "json"): "7d1df89e26e15a0e4e4314ca124f1e54d95f702b27b5fd5a29b12a4c9a9bed52",
    ("a3_alt", "classify", "--format", "csv"): "2d9e37db2d4bc98db9e478cc8ebd2bba97e6161f68d111a71cadaf2b5a89c96a",
    ("a3_alt", "silting", "--format", "json"): "d44c0b67992c4e587fe3f91c97a08390ecf16ceccaac4892b991a41c1e4a2dcd",
    ("a3_alt", "ar", "--two-term", "--format", "json"): "4113254e0ac940113132535dc826162430294e66d2452fae1dbac59b384a2b1d",
    ("a4_second", "classify", "--format", "json"): "d972e9cfb9054e348d9c59695a8e4f4fcd4af4b7200e192e9a2de8f1dbdb204f",
    ("a4_second", "classify", "--format", "csv"): "1e1a6d451a10c0359f9409760f5108810aa9d8e29511dd66510c0540930b801d",
    ("a4_second", "silting", "--format", "json"): "229235c8dd71fc75eaabb3f0da0136c45e2d14b0aba3a7008deec76f6a87ad10",
    ("a4_second", "ar", "--two-term", "--format", "json"): "ff0211b3fbf2aabf931bf8e5b25643090aba5c5205f35845c5c67184a5cea05e",
    ("d4", "classify", "--format", "json"): "aa6142b3f5dffa5f033a151491c56aa2f1b4b6c6a07231c464ec4c665351e930",
    ("d4", "classify", "--format", "csv"): "02cb01f9dda1d982a08de86af9dd50c6babb73683e50d1d2383bd51211e43d8e",
    ("d4", "silting", "--format", "json"): "b0f17baf571d7a9c56b8e0630e3e1e34ee80c41649dbdc82fe714c518e99b39b",
    ("d4", "ar", "--two-term", "--format", "json"): "d4472cd85ae187adf781b2ebfc2187102800d3a8c13c9deb0fc6f3445028f8d8",
    ("d5", "classify", "--format", "json"): "8ce6511d5581729b33249425674f6c543c4d042c8e98f047547ad276e15cb949",
    ("d5", "ar", "--two-term", "--format", "json"): "c8eb33b4b13fcdd79860c0f3d46fdc5158c877a6c18f2fb30cfef44c3d46f8e1",
    ("d5", "silting", "--format", "ascii"): "e8a0c7ea0d4c8864b1d12c30ef8c829d0b7350042786dc46f5b4578b48613929",
    ("d4_second", "ar", "--two-term", "--format", "json"): "9eb378781bcea20d3d407fe5c0294624d307647b7e12dd3fe6d8e1b4a79aee70",
    ("d4_second", "silting", "--format", "ascii"): "a0826aab813df28128710d655106a438391e2b0324cd360ac2b8dda3581a43b3",
    ("a4_third", "classify", "--format", "json"): "81ffe93a243779395854d82dc57783cfcee2fa2342bb63772aa34e6342af5d2f",
    ("a4_third", "silting", "--tilting-only", "--format", "json"): "8d01ca8dca0af7c0ddbefeeffc4ca6c81fca9ef89cae74489681060d2d3f35e5",
    ("d4_second", "silting", "--tilting-only", "--format", "json"): "60f70f1e859a67c85d66fcd85f49a36a6205cf927038798d2a69d90ca9c936e8",
    ("d5", "silting", "--tilting-only", "--format", "json"): "dd6159ff12b1392692d8b2582c5cf8fb34b98a3327be7e457cfe2f0f1ef34b14",
    ("a4_third", "silting", "--tilting-only", "--oracle", "--format", "json"): "8d01ca8dca0af7c0ddbefeeffc4ca6c81fca9ef89cae74489681060d2d3f35e5",
    ("d4_second", "silting", "--tilting-only", "--oracle", "--format", "json"): "60f70f1e859a67c85d66fcd85f49a36a6205cf927038798d2a69d90ca9c936e8",
    ("d5", "silting", "--tilting-only", "--oracle", "--format", "json"): "dd6159ff12b1392692d8b2582c5cf8fb34b98a3327be7e457cfe2f0f1ef34b14",
    ("d5", "silting", "--oracle", "--format", "json"): "c438482d1b0e39724875df1ca721558a75215afb4d47a24ca37df7f90b30fa85",
}


@pytest.mark.parametrize("key", sorted(FROZEN_DIGESTS), ids=" ".join)
def test_output_matches_frozen_digest(key, capsys):
    name, command, *flags = key
    rc, out, _ = run_cli(capsys, command, name, *flags)
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FROZEN_DIGESTS[key]


def test_silting_ascii_on_a4_with_inner_source(tmp_path, capsys):
    # the ASCII report draws the AR quiver, so it needs the knit to hold
    # on an orientation whose longest paths disagree with the arrows
    path = tmp_path / "a4.quiver"
    path.write_text("vertices 1 2 3 4\narrow a:2->1\narrow b:2->3\narrow c:3->4\n")
    rc, out, err = run_cli(capsys, "silting", str(path))
    assert rc == 0, err
    assert out.count("•") == 42 * 4


def test_repeat_runs_byte_identical(capsys):
    rc1, out1, _ = run_cli(capsys, "classify", fx("a3_linear"), "--format", "csv")
    rc2, out2, _ = run_cli(capsys, "classify", fx("a3_linear"), "--format", "csv")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_out_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    rc1, out1, _ = run_cli(capsys, "silting", fx("a2"), "--format", "json")
    target = tmp_path / "report.json"
    rc2, out2, _ = run_cli(
        capsys, "silting", fx("a2"), "--format", "json", "--out", str(target)
    )
    assert rc1 == rc2 == 0
    assert out2 == ""
    assert target.read_text(encoding="utf-8") == out1


# --- paper-suite command ---

def test_paper_suite_all_rows_pass(capsys):
    rc, out, _ = run_cli(capsys, "paper-suite")
    assert rc == 0
    assert "result:" in out
    assert "FAIL" not in out


def test_paper_suite_csv(capsys):
    rc, out, _ = run_cli(capsys, "paper-suite", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "criterion,check,expected,computed,status"
    assert all(line.endswith(",pass") for line in lines[1:])


def test_paper_suite_detects_mismatch(monkeypatch, capsys):
    monkeypatch.setitem(cli.EXPECTED_SILTING, "a2", 99)
    rc, out, _ = run_cli(capsys, "paper-suite")
    assert rc == 1
    assert "FAIL" in out


# --- subprocess smoke tests ---

def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "silt.cli", "silting", fx("a2"), "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 5


def test_subprocess_missing_file_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "silt.cli", "ar", "/no/such/file.quiver"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
