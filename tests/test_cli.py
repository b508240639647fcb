import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from qhandle import cli, complexity, rings


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_estimate_pair(capsys):
    code, out, err = run_cli(capsys, "estimate", "3", "7")
    assert code == 0 and err == ""
    assert json.loads(out) == {"Est": 35, "dimH": 35, "k": 3, "n": 7}


def test_delta_grassmannian_formulas(capsys):
    code, out, _ = run_cli(capsys, "delta", "gr:2,5")
    assert code == 0
    rep = json.loads(out)
    assert rep["display"] == "10 s[3,3] + 5 q s[1]"
    assert rep["formulas_agree"] is True
    assert rep["formulas"]["index_lift_sum"] == rep["formulas"]["two_row_form"]
    assert rep["delta"] == {"s[3,3]": {"0": "10"}, "s[1]": {"1": "5"}}


def test_delta_projective(capsys):
    code, out, _ = run_cli(capsys, "delta", "pn:3")
    assert code == 0
    rep = json.loads(out)
    assert rep["delta"] == {"H^3": {"0": "4"}}
    assert rep["formulas_agree"] is True


def test_delta_reports_a_wrong_handle(capsys, monkeypatch):
    build = rings.projective_space

    def wrong(n):
        ring = build(n)
        ring.delta_override = ring.element({ring.labels[n]: n + 2})
        return ring

    monkeypatch.setattr(rings, "projective_space", wrong)
    code, out, _ = run_cli(capsys, "delta", "pn:3")
    rep = json.loads(out)
    assert code == 0 and rep["delta"] == {"H^3": {"0": "5"}}
    assert rep["formulas"] == {"closed_form": "4 H^3"}
    assert rep["formulas_agree"] is False


def test_sinfty_quadric_unit(capsys):
    code, out, _ = run_cli(capsys, "sinfty", "quadric:4", "--from", "unit")
    assert code == 0
    rep = json.loads(out)
    assert rep["points"] == [{"1": "1", "s4": "1"}]
    assert rep["exact"] is True
    assert rep["method"] == "rational-split"


def test_powers(capsys):
    code, out, _ = run_cli(capsys, "powers", "pn:2", "--k", "3")
    rep = json.loads(out)
    assert code == 0
    assert rep["power"] == {"1": {"2": "27"}}
    assert rep["display"] == "27 q^2"


def test_powers_negative_k_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "powers", "pn:2", "--k", "-1")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ValueError"


def test_complexity_found_and_not_found(capsys):
    code, out, _ = run_cli(capsys, "complexity", "pn:3",
                           "--from", "unit", "--to", "point")
    rep = json.loads(out)
    assert code == 0 and rep["found"] is True and rep["complexity"] == 1

    code, out, _ = run_cli(capsys, "complexity", "quadric:3",
                           "--from", "unit", "--to", "H")
    rep = json.loads(out)
    assert code == 0 and rep["found"] is False and rep["complexity"] is None


def test_complexity_approximate(capsys):
    code, out, _ = run_cli(capsys, "complexity", "quadric:3",
                           "--from", "unit", "--to", "H", "--eps", "0.999")
    rep = json.loads(out)
    assert code == 0 and rep["mode"] == "approximate" and rep["eps"] == 0.999


def test_orbit(capsys):
    code, out, _ = run_cli(capsys, "orbit", "pn:2")
    rep = json.loads(out)
    assert code == 0
    assert rep["closed"] is True and rep["count"] == 3
    assert rep["cycle_start"] == 0 and rep["cycle_length"] == 3
    assert rep["states"][0] == {"1": "1"}


def _fraction_state_json(ring, state):
    pivot = next(x for x in state.ints if x)
    return {ring.labels[i]: str(Fraction(x, pivot)) for i, x in enumerate(state.ints) if x}


@pytest.mark.parametrize("source", ["unit", "point", "s[1,1,1]", "s[3,1]", "s[5]", "s[4,2]"])
def test_state_json_matches_the_fraction_form_on_gr_3_8(source):
    ring = rings.grassmannian(3, 8)
    traj = complexity.trajectory(ring, cli.parse_state(ring, source))
    for state in traj.states:
        assert cli.state_json(ring, state) == _fraction_state_json(ring, state)


@pytest.mark.parametrize("ints", [
    (-3, 6, 0, 9),  # a negative pivot
    (0, 0, 4, -6, 4),  # the pivot is not the first coordinate; entries equal to it
    (0, -5, -5, 10),
    (2 ** 70, -(3 ** 45), 2 ** 71 + 1, 0),
    (7,),
])
def test_state_json_matches_the_fraction_form_by_hand(ints):
    ring = SimpleNamespace(labels=[f"e{i}" for i in range(len(ints))])
    state = complexity.ProjState._of_primitive(ints)
    assert cli.state_json(ring, state) == _fraction_state_json(ring, state)


def test_dimf(capsys):
    code, out, _ = run_cli(capsys, "dimf", "quadric:5")
    rep = json.loads(out)
    assert code == 0
    assert rep["computed"] == 2 == rep["closed_form"]
    assert rep["matches_closed_form"] is True
    assert rep["powers"] == [0, 1]


def test_ring_description(capsys):
    code, out, _ = run_cli(capsys, "ring", "pn:1")
    rep = json.loads(out)
    assert code == 0
    assert rep["labels"] == ["1", "H"] and rep["tau"] == 2
    assert rep["point"] == "H" and rep["unit"] == "1"


def test_amatrix(capsys):
    code, out, _ = run_cli(capsys, "amatrix", "gr:2,4")
    rep = json.loads(out)
    assert code == 0
    assert rep["symmetric"] is True and rep["positive_definite"] is True
    assert rep["leading_minors"][0] == "6"
    assert rep["matrix"][0][0] == "6"


def test_amatrix_without_point_class_fails_cleanly(capsys):
    code, out, err = run_cli(capsys, "amatrix", "fci:4;r=3")
    assert code == 1
    rep = json.loads(out)
    assert rep["error"]["type"] == "ValueError"
    assert "point class" in rep["error"]["message"]


def test_fci_ring_via_cli(capsys):
    code, out, _ = run_cli(capsys, "ring", "fci:2,2;r=4")
    rep = json.loads(out)
    assert code == 0 and rep["dim"] == 5 and rep["tau"] == 3


def test_usage_errors_exit_2(capsys):
    for argv in [["delta", "pn"], ["delta", "pn:x"], ["delta", "zz:3"],
                 ["delta", "gr:2"], ["ring", "fci:2;r"],
                 ["ring", "pn:" + "9" * 5000]]:  # past int()'s digit limit
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("qh: ")


def test_non_finite_floats_are_usage_errors(capsys, monkeypatch, tmp_path):
    approx = ["complexity", "quadric:3", "--from", "unit", "--to", "H"]
    for argv in [approx + ["--eps", "nan"], approx + ["--eps", "inf"]]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "finite" in err
    # a NaN that a command might return is an error object, and nothing is
    # written before it
    monkeypatch.setitem(cli.COMMANDS, "estimate", lambda args: {"rows": [{"eps": float("nan")}]})
    dest = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "estimate", "3", "7", "--out", str(dest))
    assert code == 1 and err == ""
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": {"type": "ValueError",
                                         "message": "report holds a non-finite float nan"}}
    assert not dest.exists()


def test_negative_eps_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "complexity", "pn:2", "--from", "unit",
                             "--to", "H", "--eps", "-1")
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": {"type": "ValueError",
                                         "message": "eps must be nonnegative"}}


def test_sinfty_has_no_kmax_option(capsys):
    # S_infinity does not depend on a step budget, so sinfty takes none
    code, out, err = run_cli(capsys, "sinfty", "pn:2", "--kmax", "5")
    assert code == 2 and out == "" and "--kmax" in err


def test_sinfty_has_no_tol_option(capsys):
    code, out, err = run_cli(capsys, "sinfty", "pn:2", "--tol", "1e-9")
    assert code == 2 and out == "" and "--tol" in err


def test_domain_errors_exit_1_with_error_object(capsys):
    code, out, err = run_cli(capsys, "delta", "gr:1,5")
    assert code == 1 and err == ""
    rep = json.loads(out)
    assert rep["error"]["type"] == "ValueError"
    assert "2 <= k" in rep["error"]["message"]


def test_estimate_and_ring_share_the_grassmannian_domain(capsys):
    # k = n - 1 is outside the domain of both commands
    outs = []
    for argv in (("estimate", "3", "4"), ("ring", "gr:3,4")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and err == ""
        outs.append(json.loads(out))
    assert outs[0] == outs[1] == {
        "error": {"type": "ValueError", "message": "need 2 <= k <= n - 2"}}


def test_verify_single_criterion(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "1", "--format", "text")
    assert code == 0
    assert "criterion 1: PASS" in out
    assert out.strip().endswith("overall: PASS")


def test_verify_unknown_criterion_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--only", "99")
    assert code == 2 and "unknown criteria" in err


def test_verify_json_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--only", "1,7")
    _, second, _ = run_cli(capsys, "verify", "--only", "1,7")
    assert first == second
    rep = json.loads(first)
    assert rep["ok"] is True and len(rep["criteria"]) == 2


def test_estimate_table_csv(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--table", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["ring", "dimH", "Est", "dimF-computed"]
    assert len(rows) == 11
    by_ring = {r[0]: r for r in rows[1:]}
    assert by_ring["gr:2,4"] == ["gr:2,4", "6", "2", "2"]
    assert by_ring["gr:2,6"] == ["gr:2,6", "15", "9", "9"]
    # the published table prints 9 here; the defining formula gives 10
    assert by_ring["gr:3,9"][2] == "10"


def test_csv_rejected_outside_table(capsys):
    code, out, err = run_cli(capsys, "estimate", "3", "7", "--format", "csv")
    assert code == 2 and "csv" in err


def test_out_writes_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "estimate", "3", "7", "--out", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["Est"] == 35


def test_out_writes_the_bytes_of_stdout(tmp_path, capsys):
    for argv in (["orbit", "gr:3,8"], ["sinfty", "gr:3,6", "--format", "text"],
                 ["estimate", "--table", "--format", "csv"]):
        code, out, _ = run_cli(capsys, *argv)
        dest = tmp_path / "report"
        assert run_cli(capsys, *argv, "--out", str(dest)) == (code, "", "")
        assert dest.read_bytes() == out.encode(), argv


def test_out_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys):
    dest = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "ring", "pn:1", "--out", str(dest))
    assert code == 2 and out == "" and not dest.exists()
    assert err.startswith("qh: cannot write the report: ") and err.count("\n") == 1


def test_estimate_past_the_old_recursion_limit(capsys):
    code, out, _ = run_cli(capsys, "estimate", "2", "100000")
    assert code == 0 and json.loads(out)["Est"] == 1250000000


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "estimate", "3", "7", "--format", "text")
    assert code == 0 and "Est: 35" in out


#: (argv, exit code, SHA-256 of stdout) recorded before the elimination kernel
#: moved from Fractions to integers; they run the inverse, rank, span,
#: eigenstructure, solve and leading-minor paths on Grassmannians, a quadric,
#: a projective space and an fci ring.
GOLDEN = [
    (["amatrix", "gr:2,5"], 0, "3eaa493b6c1652ad31748940a1ccfe1553f52e2c6a65eade30745a5a407478a8"),
    (["amatrix", "gr:3,6"], 0, "5f0fc0a2adbaa52c9a7a51e8d48f2f8831ec957325570efedce59b42abc0ddc0"),
    (["amatrix", "gr:3,7"], 0, "f80685ef03d8c254d559aa795c63cfb9d247a4924c6d591b71d39bd39f2eaab7"),
    (["amatrix", "quadric:5"], 0, "b616ec871b366fef6755beaf659971ca6cbd42fda7ad0341eddd9e95e4bb91f4"),
    (["amatrix", "pn:4"], 0, "4fc78f45f280f4a87a42b7c69301d89957457562eeb453093af751fcc9b7a49f"),
    (["amatrix", "fci:5;r=4"], 1, "32de026915d9e7787dd8a6077dbafb86cda7b78f97d46166c43a7d1d8db56059"),
    (["dimf", "gr:2,5"], 0, "9f6d7c31e81d3389fdafaebe5e9f92d353743bf99f9d4fa1b4f2f6c036432b99"),
    (["dimf", "gr:3,6"], 0, "4ce4297ddbcf3134672f28ae3ec00f3019157d776abddaf5450593fb52890862"),
    (["dimf", "gr:3,7"], 0, "10869adbca40be4d8c4c962555ea44d6826a67daca5a2ddf881ff84ed18f5675"),
    (["dimf", "quadric:5"], 0, "6138d63d927fee4d05780eca7a2e89db8ce752eb5cf7f7f90a6114f87bae36e6"),
    (["dimf", "pn:4"], 0, "3568ae5325b80f503f6d5ecd3909b96a71fc831488557eea53ac37cbb03ca6ab"),
    (["dimf", "fci:5;r=4"], 0, "7862d2926d8f297d61f4a013497a498f0d2f710a6c7ec4432412f499400fef49"),
    (["sinfty", "quadric:5"], 0, "4c35e4bbb652fe7e09856e9cd619a1ae62697ff6f1fe40a2c17f69f77910208d"),
    (["sinfty", "gr:3,6"], 0, "bb4ad58fa2beba64a1d9196c60f5797f1b824707194469545d9c7ad07aa6ea7f"),
    (["sinfty", "fci:5;r=4"], 0, "9d89003808dbdd6ee8103a8527780a428792b2305b91aea30dd7977f20f97df9"),
    (["sinfty", "pn:4"], 0, "ae88ddbc99ed6cc6b2ffb2dbf5bb1e8ac0f4bfc20833bb69787b3ff4f87b902c"),
    (["delta", "gr:3,7"], 0, "e6662cdcb2b9810de93168dfc20f02205ad8edcc3ea8d72e1f2b3797237fed70"),
    # recorded before the pairing moved to sparse rows and the handle to the
    # trace solve; fci:3;r=4 has a q-dependent pairing entry
    (["ring", "gr:3,7"], 0, "8ea75c81c3f7377165d48c1c80086ad58cada5c61023759164070af78d96f459"),
    (["ring", "quadric:4"], 0, "c1bb4ff561714b70a3caaadee8aed006a6af431c94d039f2ed5ec82c8ba9ac2c"),
    (["ring", "fci:3;r=4"], 0, "eb0776abb41558fc3e9588008eea304f053bf659eff02cf6fa0c1ab687b8e632"),
    (["delta", "pn:4"], 0, "ab5ea2ada3a460d929c5c76c30161f85df841baa1df0391a2b25ea34cad7760d"),
    (["delta", "quadric:6"], 0, "790b745b865dbc2ea99224af844dde519615665af9dcd91b2b767b76c84df728"),
    (["estimate", "--table"], 0, "d7786fb11f9d0b6fd271a6fb29670af480893edce793e4842573816c15ce85d5"),
    # recorded before criteria 7 and 8 moved from Fraction matrix products to
    # integer kernels and the Schur oracle to the branching rule
    (["verify"], 0, "5a37ee076cfb4d0534706f381513289a9341ff0e78959565210aedb7bb69b9e0"),
    (["verify", "--format", "text"], 0,
     "1f8b9fa133eccd067edb7a0b692e08c302f30ee1f114d9a331bdc94adac71c0e"),
    # rational-split runs with points, recorded while the limit points still
    # came from a generalized eigenbasis
    (["sinfty", "gr:2,4"], 0, "01636b8318c32ec1c75200c1e6cceab62e80e13c905dea845310bdce689ed158"),
    (["sinfty", "gr:3,6", "--from", "s[1]"], 0,
     "f396761327eb221bda86c758866f5b477731eba0045e76774a4d263b4180f3d1"),
    (["sinfty", "quadric:3", "--from", "point"], 0,
     "d28b6dc90d097281402a5637b630e75677456801b49a28112d2ee165f4baab44"),
    (["sinfty", "fci:4;r=3", "--from", "Hhat"], 0,
     "21d56bde4f01be0b828fc4dfc48eb4d9c944c4ee38af3d737e6bc3de2ce16d6d"),
    (["sinfty", "fci:2,3;r=3"], 0, "492e62ea4d08d1f6d499b2c6894a96a5db4dd8e9362ca14530dbd253aa3cb25b"),
    # recorded while state_json still wrote each coordinate through a Fraction;
    # negative and large fractions
    (["orbit", "fci:2,3;r=3"], 0, "856c1338d6edae17a9fd1a305d63aa5796c0060e61cb56b13242554e094e38fd"),
    # 2.39 MB, recorded while JSON reports were still built as one string
    (["orbit", "gr:3,8"], 0, "b0b2bee9d58876854eb3f9e99145dd798593aeaf2e42a83cee44185f092a509d"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_outputs_match_the_recorded_bytes(capsys, argv, code, digest):
    got, out, _ = run_cli(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qhandle", "estimate", "2", "4"],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["Est"] == 2


def test_builds_and_runs_without_numpy():
    # a fresh interpreter, so no other test's imports are counted
    script = (
        "import sys, qhandle.cli\n"
        "qhandle.cli.build_ring('gr:3,6').validate()\n"
        "code = qhandle.cli.run(['sinfty', 'gr:3,6', '--from', 'unit'])\n"
        "assert code == 0 and 'numpy' not in sys.modules, code\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # inspect alone is about 10 ms of every qh process's cold start
    script = ("import sys, qhandle.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=_src_env())
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.skipif(shutil.which("qh") is None,
                    reason="the qh console script is not installed")
def test_installed_entry_point():
    proc = subprocess.run(["qh", "estimate", "2", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["Est"] == 2
