"""Oracle tests for the command-line interface.

Most tests invoke ``silt.cli.main`` in-process so that the expensive
enumeration caches are shared with the rest of the suite; a couple of
subprocess smoke tests check the installed entry point end to end.
"""

import hashlib
import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import silt.cli as cli
from silt.cli import main
from dynkin_orientations import E6
from silt.quivers import opposite, parse_quiver, quiver_to_json
from silt.modules import ar_quiver_mod
from silt.silting import silting_alg2, silting_label
import silt.classify as classify_mod
import silt.endo as endo_mod
from silt.classify import (
    _simple_resolutions,
    classify,
    dedupe,
    global_dimension,
    summary_csv,
)
from silt.endo import endomorphism_algebra

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


def test_a_quiver_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "q.quiver"
    path.write_bytes(b"vertices 1 2\xff\n")
    rc, out, err = run_cli(capsys, "classify", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"silt: error: cannot read {path}: ")
    assert "Traceback" not in err


def test_bad_syntax_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.quiver"
    bad.write_text("vertices x y\n")
    rc, _, err = run_cli(capsys, "silting", str(bad))
    assert rc == 2
    assert "error" in err


def test_json_quiver_with_float_labels_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "vertices": [1.5, 2.7],
        "arrows": [{"id": "a", "source": 1.2, "target": 2.9}],
    }))
    rc, out, err = run_cli(capsys, "classify", str(bad))
    assert rc == 2
    assert out == ""
    assert "vertex label 1.5 is not an integer" in err


def test_json_quiver_with_a_null_arrow_id_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "vertices": [1, 2],
        "arrows": [{"id": None, "source": 1, "target": 2}],
    }))
    rc, out, err = run_cli(capsys, "classify", str(bad))
    assert rc == 2
    assert out == ""
    assert "arrow id null is not a string of word characters" in err


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
    # like every other input error, it names the file
    assert f"{square}: quiver is not of Dynkin type" in err


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


@pytest.mark.parametrize(
    "argv, attr, stage",
    [
        (("silting",), "silting_alg2", "enumeration"),
        (("silting", "--oracle"), "silting_bruteforce", "oracle"),
        (("silting", "--tilting-only"), "tilting_modules_alg1", "enumeration"),
        (
            ("silting", "--tilting-only", "--oracle"),
            "tilting_modules_bruteforce",
            "oracle",
        ),
        (("classify",), "silting_alg2", "enumeration"),
        (("classify", "--oracle"), "silting_bruteforce", "oracle"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, tuple) else x,
)
def test_enumeration_and_oracle_errors_name_the_stage(
    argv, attr, stage, monkeypatch, capsys
):
    def boom(q):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, attr, boom)
    command, *flags = argv
    rc, out, err = run_cli(capsys, command, fx("a2"), *flags)
    assert rc == 1
    assert out == ""
    assert f"{command} {fx('a2')}: internal check failed: {stage}: boom" in err


@pytest.mark.parametrize(
    "argv, attr, what",
    [
        (("silting", "--oracle"), "silting_count", "silting count 5"),
        (
            ("silting", "--tilting-only", "--oracle"),
            "tilting_count",
            "tilting count 2",
        ),
        (("classify", "--oracle"), "silting_count", "silting count 5"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, tuple) else x,
)
def test_a_count_off_the_product_formula_is_an_enumeration_error(
    argv, attr, what, monkeypatch, capsys
):
    monkeypatch.setattr(cli, attr, lambda q: 0)
    command, *flags = argv
    rc, out, err = run_cli(capsys, command, fx("a2"), *flags)
    assert rc == 1
    assert out == ""
    assert (
        f"{command} {fx('a2')}: internal check failed: enumeration: {what}, "
        "but the product formula for A2 gives 0" in err
    )
    # without --oracle the count is not compared
    assert run_cli(capsys, command, fx("a2"), *flags[:-1])[0] == 0


def test_resolution_cap_error_names_the_silting_object(
    monkeypatch, capsys, tmp_path
):
    # a relabelled A2, so that no classify result is cached for it
    path = tmp_path / "a2_relabelled.quiver"
    path.write_text("vertices 7 8\narrow z:8->7\n")
    q = parse_quiver(path.read_text())
    first = next(
        t
        for t in silting_alg2(q)
        if global_dimension(endomorphism_algebra(q, t)) > 0
    )
    _simple_resolutions.cache_clear()
    monkeypatch.setattr(classify_mod, "RESOLUTION_CAP", 0)
    # classify itself resolves no simple; the oracle does
    assert run_cli(capsys, "classify", str(path))[0] == 0
    rc, out, err = run_cli(capsys, "classify", str(path), "--oracle")
    assert rc == 1
    assert out == ""
    want = f": {silting_label(q, first)}: oracle: resolution of the simple"
    assert want in err


def test_negative_ext3_error_names_the_silting_object_and_stage(
    monkeypatch, capsys, tmp_path
):
    # a third relabelled A2, so that no classify result is cached for it
    path = tmp_path / "a2_relabelled.quiver"
    path.write_text("vertices 41 42\narrow v:41->42\n")
    q = parse_quiver(path.read_text())
    first = silting_alg2(q)[0]
    # C^-1 = ((2, -1), (-1, 1)) leaves Ext^3(S_1, S_1) = 1 - 2 = -1
    monkeypatch.setattr(
        classify_mod, "cartan_data", lambda b: ((1, 1), (1, 2))
    )
    rc, out, err = run_cli(capsys, "classify", str(path))
    assert rc == 1
    assert out == ""
    assert (
        f"classify {path}: internal check failed: "
        f"{silting_label(q, first)}: ext: "
        "Ext^3(S_1, S_1) = -1 is negative" in err
    )


def test_assembly_error_names_the_silting_object_and_stage(
    monkeypatch, capsys, tmp_path
):
    # another relabelled A2, so that no End(T) is cached for it
    path = tmp_path / "a2_relabelled.quiver"
    path.write_text("vertices 31 32\narrow w:31->32\n")
    q = parse_quiver(path.read_text())
    first = silting_alg2(q)[0]

    class TwoDimensional:
        def dim(self):
            return 2

    monkeypatch.setattr(
        endo_mod, "hom_class_basis", lambda x, y, k: TwoDimensional()
    )
    rc, out, err = run_cli(capsys, "classify", str(path))
    assert rc == 1
    assert out == ""
    assert (
        f"classify {path}: internal check failed: {silting_label(q, first)}: "
        "assembly: Hom(" in err
    )


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


def test_unsupported_format_exits_2_before_any_work(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "silting_alg2", lambda q: calls.append(q) or ())
    rc, out, err = run_cli(capsys, "classify", fx("a2"), "--format", "dot")
    assert rc == 2
    assert out == "" and "format" in err
    assert calls == []


def test_classify_oracle_checks_cartan_rows_against_hom_complex(
    monkeypatch, capsys
):
    hom_class_dim = cli.hom_class_dim
    monkeypatch.setattr(
        cli, "hom_class_dim", lambda x, y, k: hom_class_dim(x, y, k) + 1
    )
    rc, out, err = run_cli(capsys, "classify", fx("a3_linear"), "--oracle")
    assert rc == 1
    assert out == ""
    q = parse_quiver(Path(fx("a3_linear")).read_text())
    first = silting_alg2(q)[0]
    want = f": {silting_label(q, first)}: oracle: Cartan entry (1, 1) is 1"
    assert want in err


def test_classify_oracle_checks_the_coxeter_order_of_tilted_blocks(
    monkeypatch, capsys
):
    # an identity Coxeter matrix has order 1, below every Coxeter number
    monkeypatch.setattr(
        classify_mod,
        "coxeter_matrix",
        lambda c: tuple(
            tuple(int(i == j) for j in range(len(c))) for i in range(len(c))
        ),
    )
    rc, out, err = run_cli(capsys, "classify", fx("a3_linear"), "--oracle")
    assert rc == 1
    assert out == ""
    q = parse_quiver(Path(fx("a3_linear")).read_text())
    first = silting_alg2(q)[0]
    assert f": {silting_label(q, first)}: oracle: block [" in err
    assert "Coxeter matrix has order 1, not the Coxeter number" in err


def _a_linear(n: int) -> str:
    vertices = " ".join(map(str, range(1, n + 1)))
    arrows = " ".join(f"a{i}:{i}->{i + 1}" for i in range(1, n))
    return f"vertices {vertices}\narrows {arrows}\n"


def test_size_limit_refuses_a13_before_enumerating(
    monkeypatch, capsys, tmp_path
):
    # A13 has 2,674,440 two-term silting objects, A12 742,900
    calls = []
    for attr in ("silting_alg2", "tilting_modules_alg1"):
        monkeypatch.setattr(cli, attr, lambda q, attr=attr: calls.append(attr))
    path = tmp_path / "a13.quiver"
    path.write_text(_a_linear(13))
    for argv in (["silting"], ["silting", "--tilting-only"], ["classify"]):
        rc, out, err = run_cli(capsys, *argv, str(path))
        assert (rc, out) == (2, "")
        assert err == (
            f"silt: error: {path}: 2,674,440 two-term silting objects, "
            "above the limit of 1,000,000\n"
        )
    assert calls == []
    assert cli._check_size("a12", parse_quiver(_a_linear(12))) is None


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
    assert out == summary_csv(q, groups)
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
    ("d5", "ar", "--format", "json"): "c5e34b72ea6d774976453afce47b011b5c8f9f63cc7aab5e7d52f73cf4fe42be",
    ("d5", "ar", "--format", "dot"): "13dcb87765dee90bfa5c7f1b304deaaae1253464c6e7d8e7a7bbeed0d6420f52",
    ("d4_second", "ar", "--format", "json"): "6dd276ac8f6ead6d4e50d861ed08d41df8a4fe1aa72e54a794a030b0cc49a624",
    ("d4_second", "ar", "--format", "dot"): "a315c7905e00ab9d42cda2fc5138436a6b2746af8eecddaa091e740e1c489e6c",
    ("a3_linear", "classify", "--format", "json"): "691ff053257ce3cb777096ba1b45a073c0f23a980361892d060f668d8b93832c",
    ("a4_linear", "classify", "--format", "json"): "54d12be8a6249d9264b6daad5ff5a94e4965f8fb52b560e8a6c05df70c132cad",
    ("d4_second", "classify", "--format", "json"): "23626d88b911195d355d4f99375a125dea87402316d0ec2c8522c1a64534a136",
    ("d5", "silting", "--tilting-only", "--format", "csv"): "b896b050e179eacba293efb073a7dd88e30c4aea2a0fe83d2c24edcb3d98fde6",
    ("d4_second", "silting", "--tilting-only", "--format", "ascii"): "29d05faa1605364e8e0de137ee9e4bcba5c3549c11fee8d36aac3c1ab71d7249",
    ("d5", "silting", "--format", "csv"): "dbbe15c0b01fa4d7c76838f9bc5fe70c0ad7517bbc5a59ad2293eb3ef04acfd2",
    # an empty quiver name: the command takes no quiver argument
    ("", "paper-suite", "--format", "csv"): "d53ff6630d6fdcb595705756bd40004780143d806e17fd851e85c39a1aca5129",
    ("", "paper-suite", "--format", "json"): "4aa738891a6e4417c3c8f0ef8031fb84864bf6edcb0b066a7143f4cecc703bd2",
    ("", "paper-suite", "--format", "ascii"): "ee86bdfa441d7d0ee228037885291e8a3e1539bb5cc0a4ac5b0afb3c15933c8c",
}


@pytest.mark.parametrize(
    "key", sorted(FROZEN_DIGESTS), ids=lambda k: " ".join(filter(None, k))
)
def test_output_matches_frozen_digest(key, capsys):
    name, command, *flags = key
    argv = [command, name, *flags] if name else [command, *flags]
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FROZEN_DIGESTS[key]


# A2 + A1: every End(T) has two or more blocks, which no fixture has.
DISCONNECTED_DIGESTS = {
    "json": "350094b190be8ca364bc1877817cf0a9ffb1b27e1dedd4f55b0b7d9a09614202",
    "csv": "50fdbb81e034d76796f19f17d85a7d6567c478292d7c1e75e9bfcbb62a2909bf",
}


@pytest.mark.parametrize("fmt", sorted(DISCONNECTED_DIGESTS))
def test_classify_on_a_disconnected_quiver_matches_frozen_digest(
    fmt, tmp_path, capsys
):
    path = tmp_path / "a2_a1.quiver"
    path.write_text("vertices 1 2 3\narrow a:1->2\n")
    rc, out, _ = run_cli(capsys, "classify", str(path), "--format", fmt)
    assert rc == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == DISCONNECTED_DIGESTS[fmt]


# Every fixture is labelled 1..n in order, so a slip between a vertex and
# its index (say, in the vertex of a shifted class) would pass on all of
# them: D4 labelled out of order, and E7 for the knitting at rank 7.
D4_UNORDERED = "vertices 7 2 9 4\narrows a:7->9 b:9->2 c:4->9\n"
E7_QUIVER = Path(__file__).resolve().parents[1] / "perfbench" / "e7.quiver"
UNORDERED_AND_RANK_7_DIGESTS = {
    ("d4", "silting", "--format", "json"): "ead50618fec05816660cf70afd3777a17f327da2d7ad3cf38f3f67b2a1b083e7",
    ("d4", "silting", "--format", "csv"): "7c75c5328847288ef1d0ca7a79aa292da490f61c2655fcb8ae85cc1670fea0b5",
    ("d4", "classify", "--format", "json"): "4b5f9f70e4a427957f2742a232be4604fecd93b8a023a717937437ffdddccdb0",
    ("d4", "ar", "--two-term", "--format", "json"): "a35c6473f49048c9ca3d0b0ebdf48281aff3d67aaa9a5464d23473cbcaf10234",
    ("e7", "ar", "--two-term", "--format", "json"): "87a31e705029c469f5dc21248ceb4bdf8d7544b6464f1b5a306e1dd5ad4b9567",
    ("e7", "ar", "--two-term", "--format", "dot"): "7ac8ca8d32de3fadb357cf9d04790fbf92bbde4cc8d3b0873d532c9687dacd6b",
}


@pytest.mark.parametrize(
    "key", sorted(UNORDERED_AND_RANK_7_DIGESTS), ids=" ".join
)
def test_unordered_labels_and_rank_7_match_frozen_digest(key, tmp_path, capsys):
    name, command, *flags = key
    path = tmp_path / "d4.quiver"
    path.write_text(D4_UNORDERED)
    quiver = str(path if name == "d4" else E7_QUIVER)
    rc, out, err = run_cli(capsys, command, quiver, *flags)
    assert rc == 0, err
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == UNORDERED_AND_RANK_7_DIGESTS[key]


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


def test_out_to_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    rc, out, err = run_cli(capsys, "ar", fx("a2"), "--out", str(target))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"silt: error: cannot write {target}: ")
    assert "Traceback" not in err


def test_json_out_to_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    rc, out, err = run_cli(
        capsys, "classify", fx("a2"), "--format", "json", "--out", str(target)
    )
    assert rc == 2
    assert out == ""
    assert err.startswith(f"silt: error: cannot write {target}: ")


def test_a_failed_check_writes_nothing(monkeypatch, tmp_path, capsys):
    # every check runs before the first byte of the report is written
    def boom(q, t):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "classify", boom)
    target = tmp_path / "report.json"
    for out_flags in ((), ("--out", str(target))):
        rc, out, err = run_cli(
            capsys, "classify", "d5", "--format", "json", *out_flags
        )
        assert rc == 1
        assert out == ""
        assert "classify d5: internal check failed: boom" in err
    assert not target.exists()


# --- the JSON writer ---

def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


class Arr(NamedTuple):
    """A JSON array, to be given to the writer as a list, tuple or map."""

    kind: str
    items: list


def plain(node):
    """The node as json.dumps takes it: every array a list or tuple."""
    if isinstance(node, Arr):
        items = [plain(x) for x in node.items]
        return tuple(items) if node.kind == "tuple" else items
    if isinstance(node, dict):
        return {k: plain(v) for k, v in node.items()}
    return node


def lazy(node):
    """The node as the writer takes it: a map array converts its elements
    only when the writer reaches them."""
    if isinstance(node, Arr):
        if node.kind == "map":
            return map(lazy, node.items)
        items = [lazy(x) for x in node.items]
        return tuple(items) if node.kind == "tuple" else items
    if isinstance(node, dict):
        return {k: lazy(v) for k, v in node.items()}
    return node


ARRAY_KINDS = st.sampled_from(("list", "tuple", "map"))
# quotes, backslashes, control characters, separators and non-ASCII text
TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é⊔𝔸 a') | st.characters(),
    max_size=6,
)
INTS = st.integers(-(2**70), 2**70)
SCALARS = st.none() | st.booleans() | INTS | TEXT
# arrays of ints, some with a bool among them
INT_ARRAYS = st.builds(Arr, ARRAY_KINDS, st.lists(INTS | st.booleans(), max_size=5))
NODES = st.recursive(
    SCALARS | INT_ARRAYS,
    lambda children: st.builds(Arr, ARRAY_KINDS, st.lists(children, max_size=4))
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=25,
)


@settings(max_examples=120, deadline=None)
@given(st.dictionaries(TEXT, NODES, max_size=5) | NODES)
def test_write_json_is_json_dumps(node):
    writes = []
    cli._write_json(lazy(node), writes.append)
    assert "".join(writes) == _dumps(plain(node))


@pytest.mark.parametrize(
    "payload",
    [1.5, {"a": [1, 0.5]}, {1, 2}, {"a": frozenset()}, {1: "a"}, {"a": {True: 1}}],
    ids=["float", "nested float", "set", "nested set", "int key", "bool key"],
)
def test_write_json_rejects_types_outside_reports(payload):
    with pytest.raises(TypeError):
        cli._write_json(payload, lambda s: None)


def test_classify_json_streams_records_as_they_are_converted(monkeypatch):
    real = cli.record_to_json
    converted = []

    def counting(q, r):
        converted.append((q, r))
        return real(q, r)

    class Sink:
        def __init__(self):
            self.writes = []  # (text, records converted so far)

        def write(self, s):
            self.writes.append((s, len(converted)))

        def flush(self):
            pass

    sink = Sink()
    monkeypatch.setattr(cli, "record_to_json", counting)
    monkeypatch.setattr(cli, "_BLOCK", 16)
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["classify", "d5", "--format", "json"]) == 0
    # one write per block of records, each right after the block's last
    # record is converted, and the rest of the document in the last write
    assert [n for _, n in sink.writes] == list(range(16, 182, 16)) + [182]
    for text, n in sink.writes[1:-1]:
        assert text == "".join(
            ",\n    " + _dumps(real(*c))[:-1].replace("\n", "\n    ")
            for c in converted[n - 16 : n]
        )


def test_json_map_arrays_are_written_in_blocks_of_256():
    writes = []
    payload = {"a": map(lambda i: {"i": i}, range(600)), "b": [1]}
    cli._write_json(payload, writes.append)
    assert "".join(writes) == _dumps({"a": [{"i": i} for i in range(600)], "b": [1]})
    # after elements 256 and 512, then the rest
    assert len(writes) == 3
    assert writes[1].count('"i"') == 256


def test_write_json_keys_repeated_int_arrays_by_type_and_indent():
    # equal tuples with a bool or at another depth must not share text
    payload = {
        "a": [(1, 2), (True, 2), [1, 2], (1, 2), [[1, 2]]],
        "b": {"c": (1, 2), "d": (1, True)},
    }
    writes = []
    cli._write_json(payload, writes.append)
    assert "".join(writes) == _dumps(payload)


def test_write_json_reuses_a_kept_tuple_only_for_that_tuple():
    # the very tuple kept skips the type check; an equal tuple of another
    # object, a tuple with a bool and one that cannot be hashed do not
    dims = (1, 2)
    payload = {
        "a": [dims, dims, tuple([True, 2]), [dims], tuple([1, 2]), (1, [2])],
        "b": [(True, 2), dims],
    }
    writes = []
    cli._write_json(payload, writes.append)
    assert "".join(writes) == _dumps(payload)


def test_benchmark_invocations_match_their_frozen_digests(monkeypatch, capsys):
    # the benchmark's correctness gate, replayed in-process; the file is
    # only read
    root = Path(__file__).resolve().parents[1]
    expected = json.loads(
        (root / "perfbench" / "expected.json").read_text(encoding="utf-8")
    )["invocations"]
    monkeypatch.chdir(root)
    for invocation, exp in expected.items():
        rc, out, err = run_cli(capsys, *invocation.split())
        assert rc == 0, (invocation, err)
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == exp["sha256"], invocation
        payload = json.loads(out)
        assert {k: payload[k] for k in exp["counts"]} == exp["counts"]


def test_ascii_on_empty_quiver_exits_0(tmp_path, capsys):
    path = tmp_path / "empty.quiver"
    path.write_text("vertices\n")
    rc, out, err = run_cli(capsys, "ar", str(path))
    assert (rc, out) == (0, "(empty quiver)\n"), err
    for flags in ((), ("--tilting-only",)):
        rc, out, err = run_cli(capsys, "silting", str(path), *flags)
        assert rc == 0, err
        assert out.endswith("\n(empty quiver)\n")


def test_classify_oracle_on_empty_quiver_matches_plain_classify(
    tmp_path, capsys
):
    # the zero algebra has global dimension 0
    path = tmp_path / "empty.quiver"
    path.write_text("vertices\n")
    rc, plain, err = run_cli(capsys, "classify", str(path))
    assert rc == 0, err
    rc, out, err = run_cli(capsys, "classify", str(path), "--oracle")
    assert (rc, out) == (0, plain), err


# E6 frozen after `classify --oracle` passed on it (outside tier-1, about
# 6 s) and after its object count matched the cluster number 833;
# opposite(E6) gives the same counts
E6_FROZEN = {
    "objects": "833",
    "classes": "300",
    "strictly shod": "38",
    "csv sha256": (
        "3942e7dc9a3d7c657c71fe847790a9925e8a5d17a018286ef5a446ea663ca5de"
    ),
    # 268 multi-term relations, 201 with a negative coefficient: a wrong
    # composition sign changes them
    "json sha256": (
        "2bbeb6ab4d829e3a8b291d5980bae4a89fdf97e512253814f06fbf9b0f5e73bb"
    ),
}


@pytest.mark.parametrize("q", [E6, opposite(E6)], ids=["e6", "e6_opposite"])
def test_e6_classify_matches_frozen_table(q, tmp_path, capsys):
    path = tmp_path / "e6.quiver"
    path.write_text(json.dumps(quiver_to_json(q)))
    rc, out, err = run_cli(capsys, "classify", str(path))
    assert rc == 0, err
    counts = dict(
        line.split(": ")
        for line in out.splitlines()
        if line.startswith(("objects:", "classes:", "strictly shod:"))
    )
    assert counts == {
        k: v for k, v in E6_FROZEN.items() if not k.endswith(" sha256")
    }
    if q == E6:
        for fmt in ("csv", "json"):
            rc, out, err = run_cli(capsys, "classify", str(path), "--format", fmt)
            assert rc == 0, err
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            assert digest == E6_FROZEN[f"{fmt} sha256"]


# --- paper-suite command ---

@pytest.mark.parametrize(
    "attr, criterion",
    [
        ("silting_alg2", 1),
        ("dedupe", 2),
        ("matches_presentation", 3),
        ("silting_bruteforce", 4),
        ("tau", 5),
        ("opposite", 6),
        ("dynkin_type", 7),
    ],
)
def test_paper_suite_errors_name_the_criterion(
    attr, criterion, monkeypatch, capsys
):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, attr, boom)
    rc, out, err = run_cli(capsys, "paper-suite")
    assert rc == 1
    assert out == ""
    assert (
        f"silt: error: paper-suite: internal check failed: "
        f"criterion {criterion}: boom" in err
    )


def test_paper_suite_detects_mismatch(monkeypatch, capsys):
    monkeypatch.setitem(cli.EXPECTED_SILTING, "a2", 99)
    rc, out, _ = run_cli(capsys, "paper-suite")
    assert rc == 1
    assert "FAIL" in out


def test_paper_suite_counts_each_failed_homology_check(monkeypatch, capsys):
    # a RuntimeError from classify --oracle's homology check is a failed
    # row, not an internal error: one count per silting object
    def boom(b):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "check_homology", boom)
    rc, out, _ = run_cli(capsys, "paper-suite", "--format", "csv")
    assert rc == 1
    failed = [line for line in out.splitlines() if line.endswith(",FAIL")]
    assert failed == [
        f"5,ext matrices {name},0,{count},FAIL"
        for name, count in cli.EXPECTED_SILTING.items()
    ]


# --- subprocess smoke tests ---

def _child_env() -> dict:
    # the child imports the silt this process imported, installed or not
    home = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (home, env.get("PYTHONPATH")) if p
    )
    return env


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "silt.cli", "silting", fx("a2"), "--format", "json"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 5


def test_a_closed_stdout_exits_2_without_a_traceback():
    # the reader goes away after the first bytes of a 680 kB report, far
    # more than a pipe holds, so a later write finds the pipe closed
    proc = subprocess.Popen(
        [sys.executable, "-m", "silt.cli", "classify", "d5", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode("utf-8")
    proc.stderr.close()
    assert proc.wait() == 2
    assert err.startswith("silt: error: cannot write stdout: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_an_unbuffered_closed_stdout_exits_2_on_a_text_report():
    # unbuffered, a 238 kB CSV report is one write that a closed pipe takes
    # only part of; the rest must still fail, not vanish with exit 0
    e7 = Path(__file__).resolve().parents[1] / "perfbench" / "e7.quiver"
    proc = subprocess.Popen(
        [sys.executable, "-m", "silt.cli", "silting", str(e7), "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**_child_env(), "PYTHONUNBUFFERED": "1"},
    )
    assert proc.stdout.read(1)
    proc.stdout.close()
    err = proc.stderr.read().decode("utf-8")
    proc.stderr.close()
    assert proc.wait() == 2
    assert err.startswith("silt: error: cannot write stdout: ")
    assert "Traceback" not in err


def test_subprocess_missing_file_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "silt.cli", "ar", "/no/such/file.quiver"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("silt: error: ")
    assert proc.stderr.count("\n") == 1


class _HardExit(Exception):
    pass


def test_entry_point_flushes_then_exits_with_mains_code(monkeypatch):
    flushed = []

    class Stream:
        def __init__(self, name, fails):
            self.name, self.fails = name, fails

        def flush(self):
            flushed.append(self.name)
            if self.fails:
                raise BrokenPipeError(32, "Broken pipe")

    def hard_exit(code):
        raise _HardExit(code)

    monkeypatch.setattr(cli, "main", lambda: 3)
    monkeypatch.setattr(cli.os, "_exit", hard_exit)
    monkeypatch.setattr(cli.sys, "stdout", Stream("stdout", False))
    monkeypatch.setattr(cli.sys, "stderr", Stream("stderr", False))
    with pytest.raises(_HardExit) as e:
        cli.entry_point()
    assert (e.value.args, flushed) == ((3,), ["stdout", "stderr"])
    # a flush that raises: sys.exit, so that the interpreter's own last
    # flush at exit reports it as it would without entry_point
    flushed.clear()
    monkeypatch.setattr(cli.sys, "stdout", Stream("stdout", True))
    with pytest.raises(SystemExit) as e:
        cli.entry_point()
    assert (e.value.code, flushed) == (3, ["stdout"])


def _silt_subprocess(*argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "silt.cli", *argv],
        capture_output=True,
        env=_child_env(),
    )


@pytest.mark.parametrize(
    "argv",
    [("silting", "a2", "--format", "json"), ("classify", "d4", "--format", "csv")],
    ids=" ".join,
)
def test_the_process_writes_what_main_writes(argv, capsys, tmp_path):
    # the process ends right after its last flush: stdout, an --out file
    # and the exit code are those of main in this process
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, err) == (0, "")
    proc = _silt_subprocess(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b"")
    path = tmp_path / "report"
    proc = _silt_subprocess(*argv, "--out", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert path.read_bytes() == out.encode()


def test_the_process_exits_3_on_a_quiver_that_is_not_dynkin(tmp_path):
    path = tmp_path / "square.quiver"
    path.write_text("vertices 1 2 3 4\narrows a:1->2 b:1->3 c:2->4 d:3->4\n")
    proc = _silt_subprocess("silting", str(path))
    assert proc.returncode == 3
    assert proc.stdout == b""
    err = proc.stderr.decode("utf-8")
    assert err.startswith(f"silt: error: {path}: quiver is not of Dynkin type")
    assert err.count("\n") == 1
