"""Command-line interface: JSON-lines reports, exit codes, round trips."""

import hashlib
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from potts_gks import (
    PottsModel,
    augment,
    make_family,
    potts_expectation,
    rc_probability,
    verify,
)
from potts_gks.cli import run
from potts_gks.mc import estimate_pooled
from test_random_cluster import six_vertex_model
from test_verify import fail_gks_pair_checks

LN3 = math.log(3)
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def edge_model_path(tmp_path):
    model = {
        "q": 2,
        "vertices": ["u", "v"],
        "edges": [{"u": "u", "v": "v", "J": LN3}],
        "fields": {},
    }
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(model))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def run_lines(capsys, argv):
    """Exit code and stdout lines, each parsed as strict JSON (no NaN/inf)."""
    code = run(argv)
    out = capsys.readouterr().out
    lines = [
        json.loads(line, parse_constant=_reject_constant)
        for line in out.strip().splitlines()
        if line
    ]
    return code, lines


# ---------------------------------------------------------------------------


def test_fclass_family_b(capsys):
    code, lines = run_lines(capsys, ["fclass", "--f", "B", "--q", "4", "--M", "48"])
    assert code == 0
    assert lines[0]["type"] == "membership"
    assert lines[0]["verdict"] == "pass"
    assert lines[-1]["type"] == "summary"


def test_fclass_non_member_exits_one(capsys):
    code, lines = run_lines(
        capsys,
        ["fclass", "--f", '{"kind": "table", "q": 2, "values": [1.0, -2.0]}'],
    )
    assert code == 1
    assert lines[0]["verdict"] == "fail"
    assert lines[0]["first_violation"][:2] == [1, 0]


def test_fclass_product_condition_failure_exits_one(capsys):
    code, lines = run_lines(
        capsys,
        ["fclass", "--f", '{"kind": "table", "q": 3, "values": [3, -3, 2]}'],
    )
    assert code == 1
    assert lines[0]["in_Fq"] is False
    assert lines[0]["first_violation"] == [1, 2, -20.0]
    assert lines[-1]["violations"] == 1


def test_large_nonnegative_table_is_certified(capsys, tmp_path):
    # the moment scan refused it at the default tol: q*S_12 - S_3*S_9 rounds
    # to -1.86e-09; a non-negative table is certified by its sign
    spec = json.dumps({"kind": "C", "q": 2, "values": [3.3, 3.3]})
    model = tmp_path / "field.json"
    model.write_text(json.dumps({"q": 2, "vertices": ["u", "v"],
                                 "edges": [{"u": "u", "v": "v", "J": LN3}],
                                 "fields": {"u": 0.25}}))
    code, lines = run_lines(capsys, ["verify", "real", "--model", str(model),
                                     "--f", spec, "--R", "u,v"])
    assert code == 0 and lines[0]["verdict"] == "pass"
    code, lines = run_lines(capsys, ["fclass", "--f", spec])
    assert code == 0
    assert lines[0]["verdict"] == "pass" and lines[0]["first_violation"] is None


@pytest.mark.parametrize("flags", [["--kind", "B"], ["--values", "[1, 0, 0]"]],
                         ids=["kind", "values"])
def test_fclass_f_excludes_kind_and_values(capsys, flags):
    # --f is fclass's one way to name its function, as in every subcommand
    with pytest.raises(SystemExit) as exc:
        run(["fclass", "--f", "A", "--q", "3", *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(flags)}" in captured.err
    assert captured.out == ""
    with pytest.raises(SystemExit) as exc:
        run(["fclass", "--q", "3", *flags])
    assert exc.value.code == 2
    assert "the following arguments are required: --f" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["fclass --f A --q 3"], ids=["fclass"])
def test_bad_tolerance_exits_two(capsys, command, tol):
    code = run([*command.split(), "--tol", tol])
    captured = capsys.readouterr()
    assert code == 2
    message = f"--tol must be finite and at least 0, got {float(tol)}"
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_verify_real(capsys, edge_model_path):
    code, lines = run_lines(
        capsys, ["verify", "real", "--model", edge_model_path, "--f", "familyA",
                 "--R", "u,v"]
    )
    model = PottsModel.from_json_file(edge_model_path)
    want = potts_expectation(model, [(make_family("A", 2), ("u", "v"))])
    assert code == 0
    assert lines[0]["claim"] == "real_nonneg"
    assert lines[0]["lhs"] == pytest.approx([want.real, want.imag], abs=1e-12)
    assert lines[0]["verdict"] == "pass"
    assert lines[-1] == {"checks": 1, "status": "ok", "type": "summary",
                         "violations": 0}


def test_function_spec_from_a_file(capsys, tmp_path, edge_model_path):
    spec = {"kind": "table", "q": 2, "values": [1.0, 0.25]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(spec))
    argv = ["verify", "real", "--model", edge_model_path, "--R", "u,v", "--f"]
    assert run([*argv, str(path)]) == 0
    from_file = capsys.readouterr().out
    assert run([*argv, json.dumps(spec)]) == 0
    assert from_file == capsys.readouterr().out


def test_verify_gks(capsys, edge_model_path):
    code, lines = run_lines(
        capsys,
        ["verify", "gks", "--model", edge_model_path, "--f", "familyA",
         "--R", "u", "--S", "v"],
    )
    assert code == 0
    report = lines[0]
    assert report["claim"] == "gks_pair"
    assert report["margin"] == pytest.approx(0.125, abs=1e-12)
    assert report["verdict"] == "pass"
    assert lines[-1]["type"] == "summary"


def test_verify_monotone_all_coordinates(capsys, edge_model_path):
    code, lines = run_lines(
        capsys,
        ["verify", "monotone", "--model", edge_model_path, "--f", "A", "--R", "u,v"],
    )
    assert code == 0
    coords = [l["details"]["coordinate"] for l in lines if l["type"] == "verification"]
    assert coords == ["J[u,v]", "h[u]", "h[v]"]


@pytest.mark.parametrize(
    "J, fields, coordinate",
    [
        (800.0, {}, ["--edge", "u,v"]),
        (1.0, {"u": 800.0}, ["--vertex", "u"]),
    ],
)
def test_verify_monotone_extreme_weights_pass(capsys, tmp_path, J, fields, coordinate):
    # e^800 overflows a double; the theorem still holds and the margins are finite
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps({"q": 2, "vertices": ["u", "v"],
                                "edges": [{"u": "u", "v": "v", "J": J}],
                                "fields": fields}))
    code, lines = run_lines(
        capsys,
        ["verify", "monotone", "--model", str(path), "--f", "A", "--R", "u,v",
         *coordinate],
    )
    assert code == 0
    report = lines[0]
    assert report["verdict"] == "pass"
    assert math.isfinite(report["margin"])
    assert all(math.isfinite(x) for x in report["details"]["finite_steps"].values())


def test_non_finite_report_exits_two(capsys, monkeypatch, edge_model_path):
    def nan_report(model, f, R, S, **kw):
        return verify.VerificationReport(
            "gks_pair", "x", complex("nan"), 0j, math.nan, 1e-8, False
        )

    monkeypatch.setattr(verify, "verify_gks_pair", nan_report)
    code = run(["verify", "gks", "--model", edge_model_path, "--f", "A",
                "--R", "u", "--S", "v"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err
    for line in captured.out.splitlines():
        json.loads(line, parse_constant=_reject_constant)


def test_verify_disjoint(capsys, edge_model_path):
    spec0 = json.dumps({"kind": "table", "q": 2, "values": [1.0, 0.0]})
    spec1 = json.dumps({"kind": "table", "q": 2, "values": [0.0, 1.0]})
    code, lines = run_lines(
        capsys,
        ["verify", "disjoint", "--model", edge_model_path,
         "--f", spec0, "--f1", spec1, "--R", "u", "--S", "v"],
    )
    assert code == 0
    assert lines[0]["margin"] == pytest.approx(0.125, abs=1e-12)


def test_verify_disjoint_overlapping_supports_exits_two(capsys, tmp_path):
    # disjoint supports are a hypothesis of the claim, so an overlap is not
    # certified: an input error, not a verdict
    path = tmp_path / "k2.json"
    path.write_text(json.dumps({"q": 3, "vertices": ["u", "v"],
                                "edges": [{"u": "u", "v": "v", "J": 1.0}]}))
    spec0 = json.dumps({"kind": "table", "q": 3, "values": [1, 0.5, 0]})
    spec1 = json.dumps({"kind": "table", "q": 3, "values": [0, 1, 0]})
    code = run(["verify", "disjoint", "--model", str(path), "--f", spec0,
                "--f1", spec1, "--R", "u", "--S", "v"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: f0 * f1 must vanish pointwise\n"
    assert captured.out == ""


def test_verify_disjoint_without_f1_exits_two(capsys, edge_model_path):
    code = run(["verify", "disjoint", "--model", edge_model_path, "--f", "familyA",
                "--R", "u", "--S", "v"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: verify disjoint needs --f1 for the second function" in captured.err
    assert captured.out == ""


def test_verify_uncertified_is_input_error(capsys, edge_model_path):
    spec = json.dumps({"kind": "table", "q": 2, "values": [1.0, -2.0]})
    code = run(["verify", "gks", "--model", edge_model_path, "--f", spec,
                "--R", "u", "--S", "v"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not certified" in err


def test_verify_certifies_at_the_derived_bound_only(capsys, tmp_path):
    # field-free K3, q = 3: f fails F_3 at m + n = 3, so the GKS claim's
    # hypothesis does not hold. --M 2 used to certify it anyway and print a
    # fail verdict (margin -0.0071); no bound can be set below 2 (|R| + |S|)
    path = tmp_path / "k3.json"
    edges = [{"u": u, "v": v, "J": 2.0} for u, v in ("ab", "bc", "ac")]
    path.write_text(json.dumps(
        {"q": 3, "vertices": ["a", "b", "c"], "edges": edges, "fields": {}}))
    argv = ["verify", "gks", "--model", str(path),
            "--f", '{"kind": "table", "q": 3, "values": [-0.5, 0.2, 0.5]}',
            "--R", "a", "--S", "a,b"]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--M", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --M 2" in captured.err
    assert captured.out == ""
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "not certified (F_q, M=16)" in captured.err
    assert captured.out == ""


def test_fuzz_takes_no_tolerance(capsys):
    # --tol 0 used to turn rounding into violations: 2,355 on 3000 trials
    with pytest.raises(SystemExit) as exc:
        run(["fuzz", "--trials", "2", "--seed", "1", "--tol", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --tol 0" in captured.err
    assert captured.out == ""


def test_exact_missing_model_exits_two(capsys):
    code = run(["exact", "--model", "does-not-exist.json"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_exact_malformed_model_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["exact", "--model", str(bad)])
    assert code == 2


def test_model_with_unknown_field_vertex_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad_field.json"
    bad.write_text(json.dumps({"q": 2, "vertices": ["a"], "edges": [],
                               "fields": {"zz": 1.0}}))
    assert run(["exact", "--model", str(bad)]) == 2


EDGE_AB = {"q": 2, "vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "J": 1.0}]}


@pytest.mark.parametrize(
    "model, message",
    [
        ({"q": 2.7, "vertices": ["a"]}, "q must be an integer, got 2.7"),
        ({"q": 2, "vertices": "ab"}, "\"vertices\" must be a list, got 'ab'"),
        ({"q": 2, "vertices": ["a"], "fields": ["a"]}, "\"fields\" must be an object"),
        ({"q": 2, "vertices": ["a"], "fields": {"a": None}}, "malformed model JSON"),
        (EDGE_AB | {"edges": [{"u": "a", "v": "b", "J": "1.5"}]},
         "malformed model JSON: J must be a number, got '1.5'"),
        (EDGE_AB | {"edges": [{"u": "a", "v": "b", "J": "x"}]},
         "J must be a number, got 'x'"),
        (EDGE_AB | {"edges": [{"u": "a", "v": "b", "J": True}]},
         "J must be a number, got True"),
        (EDGE_AB | {"edges": [{"u": "a", "v": "b", "J": None}]},
         "J must be a number, got None"),
        (EDGE_AB | {"fields": {"a": True}}, "field of 'a' must be a number, got True"),
        (EDGE_AB | {"fields": {"b": "0.5"}}, "field of 'b' must be a number, got '0.5'"),
        ({"q": 2, "vertices": [None, True, 1.5], "edges": [{"u": None, "v": True}]},
         "vertex name must be a string, got None"),
        (EDGE_AB | {"edges": [{"u": "a", "v": 1, "J": 1.0}]},
         "edge end name must be a string, got 1"),
        (EDGE_AB | {"edges": [{"u": "a", "J": 1.0}]},
         "malformed model JSON: missing key 'v'"),
        ({"vertices": ["a"]}, "malformed model JSON: missing key 'q'"),
        ({"q": 2}, "malformed model JSON: missing key 'vertices'"),
    ],
)
def test_model_json_is_rejected_not_coerced(capsys, tmp_path, model, message):
    # q = 2.7 used to run as q = 2, "ab" as the vertices a and b, and a
    # J of "1.5" or a field of true as 1.5 and 1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(model))
    assert run(["exact", "--model", str(bad)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("values", ["[NaN, 1]", "[1, Infinity]", "[[1, NaN], 0]",
                                    "[-Infinity, 0]"])
def test_non_finite_function_exits_two(capsys, edge_model_path, values):
    # a NaN value used to certify as "pass": every comparison with it is false
    spec = f'{{"kind": "table", "q": 2, "values": {values}}}'
    assert run(["fclass", "--f", spec]) == 2
    captured = capsys.readouterr()
    assert "spin function values must be finite" in captured.err
    assert captured.out == ""
    assert run(["verify", "real", "--model", edge_model_path, "--f", spec,
                "--R", "u"]) == 2
    captured = capsys.readouterr()
    assert "spin function values must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("where", ["inline", "path"])
def test_fclass_q_next_to_a_spec_exits_two(capsys, tmp_path, where):
    # --q 3 used to be dropped for the spec's own q = 4
    spec = json.dumps({"kind": "B", "q": 4})
    if where == "path":
        path = tmp_path / "f.json"
        path.write_text(spec)
        spec = str(path)
    assert run(["fclass", "--f", spec, "--q", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: --q cannot be combined with a --f spec, "
                            "which gives its own q\n")
    assert captured.out == ""
    code, lines = run_lines(capsys, ["fclass", "--f", spec])
    assert code == 0 and lines[0]["q"] == 4
    # a family reads --q, default 2
    assert run_lines(capsys, ["fclass", "--f", "B"])[1][0]["q"] == 2
    assert run_lines(capsys, ["fclass", "--f", "B", "--q", "4"])[1][0]["q"] == 4


@pytest.mark.parametrize(
    "spec, key",
    [({"kind": "table", "values": [1.0, 0.0]}, "q"), ({"q": 2}, "kind")],
)
def test_function_spec_missing_key_exits_two(capsys, edge_model_path, spec, key):
    # used to be reported as the bare key: malformed function spec: 'q'
    assert run(["verify", "gks", "--model", edge_model_path, "--f", json.dumps(spec),
                "--R", "u", "--S", "v"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f'error: function spec needs "{key}"\n'
    assert captured.out == ""


def test_family_shorthand_never_reads_the_disk(capsys, tmp_path, monkeypatch):
    # a file A in the working directory used to turn --f A into its spec
    # (mean 1/3), and a directory B made --f B exit 2 as "Is a directory"
    edges = [{"u": u, "v": v, "J": 2.0} for u, v in ("ab", "bc", "ac")]
    (tmp_path / "tri.json").write_text(json.dumps({"q": 3, "vertices": list("abc"),
                                                   "edges": edges}))
    (tmp_path / "A").write_text(json.dumps({"kind": "table", "q": 3,
                                            "values": [1, 0, 0]}))
    (tmp_path / "B").mkdir()
    monkeypatch.chdir(tmp_path)
    code, lines = run_lines(capsys, ["exact", "--model", "tri.json", "--f", "A",
                                     "--R", "a"])
    assert code == 0 and lines[0]["value"] == [0.0, 0.0]
    code, lines = run_lines(capsys, ["exact", "--model", "tri.json", "--f", "B",
                                     "--R", "a"])
    assert code == 0 and lines[0]["value"] == pytest.approx([0.0, 0.0], abs=1e-15)
    # fclass reads --q for the family, not the file's own q
    code, lines = run_lines(capsys, ["fclass", "--f", "A", "--q", "4"])
    assert code == 0 and lines[0]["q"] == 4
    # a name that is no family is still read as a path
    code, lines = run_lines(capsys, ["exact", "--model", "tri.json", "--f", "./A",
                                     "--R", "a"])
    assert code == 0 and lines[0]["value"] == pytest.approx([1 / 3, 0.0], abs=1e-15)


def test_fclass_fractional_q_exits_two(capsys):
    # used to certify the 4th roots of unity
    assert run(["fclass", "--f", json.dumps({"kind": "B", "q": 4.9})]) == 2
    assert "q must be an integer, got 4.9" in capsys.readouterr().err


def test_fclass_table_spec_without_values_exits_two(capsys):
    assert run(["fclass", "--f", '{"kind": "table", "q": 2}']) == 2
    captured = capsys.readouterr()
    assert captured.err == 'error: function spec kind "table" needs "values"\n'
    assert captured.out == ""


def test_fclass_family_shorthand_reads_q(capsys):
    # --q 0 used to fall back to q = 2 and certify family A
    assert run(["fclass", "--f", "A", "--q", "0"]) == 2
    assert "error: q must be >= 2, got 0" in capsys.readouterr().err


def test_function_q_mismatch_exits_two(capsys, edge_model_path):
    spec = json.dumps({"kind": "A", "q": 5})
    code = run(["verify", "gks", "--model", edge_model_path, "--f", spec,
                "--R", "u", "--S", "v"])
    assert code == 2
    capsys.readouterr()
    assert run(["verify", "disjoint", "--model", edge_model_path, "--f", "A",
                "--f1", spec, "--R", "u", "--S", "v"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: f0 and f1 must share q\n"
    assert captured.out == ""


def test_exact_value_and_dump_round_trip(capsys, edge_model_path):
    code, lines = run_lines(
        capsys,
        ["exact", "--model", edge_model_path, "--dump-model",
         "--f", "familyA", "--R", "u", "--S", "v"],
    )
    assert code == 0
    dumped = next(l for l in lines if l["type"] == "model")
    reparsed = PottsModel.from_json_dict(dumped["model"])
    assert reparsed == PottsModel.from_json_file(edge_model_path)
    value = next(l for l in lines if l["type"] == "expectation")
    assert value["value"][0] == pytest.approx(0.125, abs=1e-12)


def test_rc_checks(capsys, edge_model_path):
    code, lines = run_lines(
        capsys,
        ["rc", "--model", edge_model_path, "--f", "familyA", "--R", "u,v",
         "--omega", "100"],
    )
    assert code == 0
    by_type = {l["type"]: l for l in lines}
    assert by_type["rc_partition"]["verdict"] == "pass"
    assert by_type["rc_partition"]["log_difference"] <= 1e-14
    assert by_type["coupling_check"]["verdict"] == "pass"
    assert by_type["tower_check"]["verdict"] == "pass"
    assert by_type["rc_probability"]["probability"] > 0
    assert lines[-1]["type"] == "summary"


@pytest.mark.parametrize("omega", ["000", "100", "011"])
def test_rc_omega_probability_matches_rc_probability(capsys, edge_model_path, omega):
    code, lines = run_lines(
        capsys, ["rc", "--model", edge_model_path, "--omega", omega]
    )
    assert code == 0
    got = next(l for l in lines if l["type"] == "rc_probability")["probability"]
    aug = augment(PottsModel.from_json_file(edge_model_path))
    assert abs(got - rc_probability(aug, [int(c) for c in omega])) <= 1e-15


# sha256 of the rc stdout on six_vertex_model (17 bonds): the Z identity,
# the spin law, the tower mean and phi(omega) read bit for bit as recorded
FROZEN_RC_SHA256 = "66b79b72ce1f9aba478a222dea4996708d7db415aa20d775643fa1e67f067eb7"


def test_rc_output_is_frozen(capsys, tmp_path):
    path = tmp_path / "six.json"
    path.write_text(json.dumps(six_vertex_model().to_json_dict()))
    code = run(["rc", "--model", str(path), "--f", "A", "--R", "a,b",
                "--omega", "10100100010100001"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_RC_SHA256


@pytest.mark.parametrize(
    "omega, message",
    [
        ("102", "bond configuration must be 3 bits over E+, got [1, 0, '2']"),
        ("10", "bond configuration must be 3 bits over E+, got [1, 0]"),
        ("1x0", "bond configuration must be 3 bits over E+, got [1, 'x', 0]"),
        ("", "bond configuration must be 3 bits over E+, got []"),
    ],
)
def test_rc_malformed_omega_exits_2(capsys, edge_model_path, omega, message):
    code = run(["rc", "--model", edge_model_path, "--omega", omega])
    assert code == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    assert out == ""  # no check is written before the arguments are read


def test_rc_empty_omega_is_the_one_configuration_of_no_bonds(capsys, tmp_path):
    # with no vertices, E+ is empty and '' is its one bond configuration; an
    # empty --omega used to be taken for none and its line dropped
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"q": 2, "vertices": [], "edges": [], "fields": {}}))
    code, lines = run_lines(capsys, ["rc", "--model", str(path), "--omega", ""])
    assert code == 0
    (line,) = [l for l in lines if l["type"] == "rc_probability"]
    assert line == {"type": "rc_probability", "omega": "", "probability": 1.0}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rc", "--f", "Z"], "unknown family kind 'Z'"),
        (["rc", "--f", "A", "--R", "zz"], "unknown vertex 'zz'"),
        (["exact", "--dump-model", "--f", "Z"], "unknown family kind 'Z'"),
        (["exact", "--dump-model", "--f", "A", "--R", "zz"], "unknown vertex 'zz'"),
    ],
    ids=["rc-f", "rc-R", "exact-f", "exact-R"],
)
def test_malformed_function_or_region_exits_2_before_any_line(
    capsys, edge_model_path, argv, message
):
    code = run([*argv, "--model", edge_model_path])
    assert code == 2
    out, err = capsys.readouterr()
    assert message in err
    assert out == ""


def test_mc_estimate(capsys, edge_model_path):
    code, lines = run_lines(
        capsys,
        ["mc", "--model", edge_model_path, "--f", "familyA", "--R", "u", "--S", "v",
         "--sweeps", "20000", "--seed", "4"],
    )
    assert code == 0
    est = lines[0]
    assert est["type"] == "estimate"
    assert abs(est["mean"][0] - 0.125) <= 4 * est["std_error"]


def test_mc_chains_match_estimate_pooled(capsys, edge_model_path):
    code, lines = run_lines(
        capsys,
        ["mc", "--model", edge_model_path, "--f", "familyA", "--R", "u", "--S", "v",
         "--sweeps", "2000", "--seed", "7", "--chains", "2"],
    )
    assert code == 0
    model = PottsModel.from_json_file(edge_model_path)
    f = make_family("A", 2)
    factors = [(f, ("u",)), (f, ("v",))]
    want = estimate_pooled(model, factors, sweeps=2000, seed=7, chains=2)
    assert lines[0] == want.to_json_dict()
    assert lines[0]["sweeps"] == 4000


@pytest.mark.parametrize("chains", ["0", "-3"])
def test_mc_fewer_than_one_chain_exits_two(capsys, edge_model_path, chains):
    code = run(["mc", "--model", edge_model_path, "--f", "familyA", "--R", "u",
                "--S", "v", "--sweeps", "2000", "--seed", "7", "--chains", chains])
    captured = capsys.readouterr()
    assert code == 2
    assert f"need at least one chain, got {chains}" in captured.err
    lines = [json.loads(line, parse_constant=_reject_constant)
             for line in captured.out.splitlines() if line]
    assert all(line["type"] != "estimate" for line in lines)


def test_mc_requires_seed(capsys, edge_model_path):
    with pytest.raises(SystemExit) as exc:
        run(["mc", "--model", edge_model_path, "--sweeps", "100"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["fuzz", "--trials", "1", "--seed", "-1"],
     ["mc", "--f", "familyA", "--R", "u", "--sweeps", "100", "--seed", "-5"]],
)
def test_negative_seed_exits_two_naming_the_seed(capsys, edge_model_path, argv):
    if argv[0] == "mc":
        argv = argv + ["--model", edge_model_path]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    seed = argv[argv.index("--seed") + 1]
    assert err == f"error: seed must be an integer of at least 0, got {seed}\n"
    assert out == ""


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("rc", "--S", "v"),
        ("rc", "--f1", "familyA"),
        ("rc", "--tol", "1e-6"),
        ("rc", "--M", "8"),
        ("exact", "--tol", "1e-6"),
        ("exact", "--M", "8"),
        ("mc", "--tol", "1e-6"),
        ("mc", "--M", "8"),
        ("mc", "--cap", "64"),
        ("verify real", "--tol", "1e-6"),
        ("verify monotone", "--tol", "1e-6"),
        ("verify gks", "--tol", "1e-6"),
        ("verify disjoint", "--tol", "1e-6"),
        ("verify real", "--M", "8"),
        ("verify monotone", "--M", "8"),
        ("verify gks", "--M", "0"),
        ("verify disjoint", "--M", "8"),
        ("verify real", "--f1", "familyB"),
        ("verify monotone", "--f1", "familyB"),
        ("verify gks", "--f1", "familyB"),
        ("verify real", "--S", "v"),
        ("verify monotone", "--S", "v"),
        ("verify real", "--edge", "u,v"),
        ("verify gks", "--edge", "u,v"),
        ("verify disjoint", "--edge", "u,v"),
        ("verify real", "--vertex", "u"),
        ("verify gks", "--vertex", "u"),
        ("verify disjoint", "--vertex", "u"),
    ],
)
def test_flags_a_command_ignores_are_rejected(capsys, edge_model_path, command,
                                              flag, value):
    argv = [*command.split(), "--model", edge_model_path, "--f", "familyA",
            "--R", "u", flag, value]
    if command == "mc":
        argv += ["--sweeps", "100", "--seed", "1"]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags, named",
    [
        ("rc", ["--R", "zz"], "--R"),
        ("exact", ["--R", "zz", "--S", "qq", "--f1", "B"], "--R"),
        ("exact", ["--S", "qq"], "--S"),
        ("exact", ["--f1", "B"], "--f1"),
        ("mc", ["--R", "zz"], "--R"),
        ("mc", ["--S", "v"], "--S"),
    ],
)
def test_region_flags_without_f_exit_two(capsys, edge_model_path, command, flags, named):
    # these used to be ignored: rc printed its pass lines, exact a summary
    # and mc an estimate of 1, each exiting 0
    argv = [command, "--model", edge_model_path, *flags]
    if command == "mc":
        argv += ["--sweeps", "100", "--seed", "1"]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {named} needs --f\n"
    assert captured.out == ""


@pytest.mark.parametrize("edge", ["u", "u,v,u"])
def test_verify_monotone_edge_needs_two_vertices(capsys, edge_model_path, edge):
    code = run(["verify", "monotone", "--model", edge_model_path, "--f", "A",
                "--R", "u", "--edge", edge])
    assert code == 2
    assert f"--edge needs two vertices as u,v, got {edge!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "coordinate, message",
    [
        (["--edge", "u,z"], "no edge <u,z> in model"),
        (["--edge", "u,u"], "no edge <u,u> in model"),
        (["--vertex", "z"], "unknown vertex 'z'"),
    ],
)
def test_verify_monotone_unknown_coordinate_exits_two(capsys, edge_model_path,
                                                      coordinate, message):
    code = run(["verify", "monotone", "--model", edge_model_path, "--f", "A",
                "--R", "u", *coordinate])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""


def test_verify_without_f_exits_two(capsys, edge_model_path):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "real", "--model", edge_model_path, "--R", "u"])
    assert exc.value.code == 2
    assert "the following arguments are required: --f" in capsys.readouterr().err


def test_fuzz_command(capsys):
    code, lines = run_lines(
        capsys, ["fuzz", "--trials", "50", "--seed", "42", "--n-max", "4"]
    )
    assert code == 0
    assert lines[-1]["type"] == "summary"
    assert lines[-1]["violations"] == 0
    assert lines[-1]["trials"] == 50


def test_fuzz_prints_each_failing_report(capsys, monkeypatch):
    # no certified instance fails, so a stub stands in for a violated check
    bad = verify.VerificationReport("gks_pair", "x", 0j, 1 + 0j, -1.0, 1e-8, False)
    fail_gks_pair_checks(monkeypatch, bad)
    code, lines = run_lines(capsys, ["fuzz", "--trials", "2", "--seed", "1"])
    assert code == 1
    assert lines[:-1] == [verify.report_to_json_dict(bad)] * 2
    assert lines[-1]["type"] == "summary"
    assert lines[-1]["violations"] == 2


def test_fuzz_past_six_vertices(capsys):
    code, lines = run_lines(
        capsys, ["fuzz", "--trials", "20", "--seed", "1", "--n-max", "12"]
    )
    assert code == 0
    assert lines[-1]["trials"] == 20
    assert lines[-1]["skipped_too_large"] == 0


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n-max", "0"], "--n-max must be at least 1, got 0"),
        (["--n-max", "-1"], "--n-max must be at least 1, got -1"),
        (["--J-max", "inf"], "--J-max must be finite and at least 0, got inf"),
        (["--J-max", "nan"], "--J-max must be finite and at least 0, got nan"),
        (["--J-max", "-1"], "--J-max must be finite and at least 0, got -1.0"),
        (["--h-max", "nan"], "--h-max must be finite and at least 0, got nan"),
        (["--h-max", "-0.5"], "--h-max must be finite and at least 0, got -0.5"),
        (["--density", "7"], "--density must lie in [0, 1], got 7.0"),
        (["--density", "-0.5"], "--density must lie in [0, 1], got -0.5"),
        (["--density", "nan"], "--density must lie in [0, 1], got nan"),
        (["--trials", "-5"], "--trials must be at least 0, got -5"),
    ],
    ids=["0", "-1", "J-max-inf", "J-max-nan", "J-max-negative", "h-max-nan",
         "h-max-negative", "density-7", "density-negative", "density-nan",
         "trials-negative"],
)
def test_fuzz_bad_ranges_exit_two(capsys, flags, message):
    code = run(["fuzz", "--trials", "5", "--seed", "1", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("q", ["2,0", "3,x", "1", ""], ids=["2-0", "3-x", "1", "empty"])
def test_fuzz_bad_q_exits_two_before_any_trial(capsys, monkeypatch, q):
    # --q 2,0 used to exit 0 at one trial and 2 mid-run at 50, and 3,x to
    # print int()'s bare message
    monkeypatch.setattr(verify, "fuzz", lambda config: pytest.fail("fuzz ran"))
    code = run(["fuzz", "--trials", "50", "--seed", "1", "--q", q])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: --q must list integers of at least 2, got {q!r}" in captured.err
    assert captured.out == ""


def test_cap_flag_limits_enumeration(capsys, edge_model_path):
    code = run(["rc", "--model", edge_model_path, "--cap", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert "exceed" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize(
    "command",
    [
        "exact --model {model} --f familyA --R u",
        "rc --model {model}",
        "verify gks --model {model} --f familyA --R u --S v",
        "fuzz --trials 3 --seed 1",
    ],
    ids=["exact", "rc", "verify", "fuzz"],
)
def test_cap_below_one_exits_two(capsys, edge_model_path, command, cap):
    # fuzz --cap -5 used to skip every check as too large and exit 0
    code = run([*command.format(model=edge_model_path).split(), "--cap", cap])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: --cap must be at least 1, got {cap}\n"
    assert captured.out == ""


def test_readme_cli_examples_run_as_written(capsys, tmp_path, monkeypatch):
    # every potts-gks line of the README, the 10^4-trial fuzz included, on
    # its model block saved as edge.json: exit 0, strict JSON, summary last
    text = README.read_text()
    model = re.search(r"```json\n(.*?)```", text, re.S).group(1)
    (tmp_path / "edge.json").write_text(model)
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in re.findall(r"```sh\n(.*?)```", text, re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("potts-gks ")
    ]
    assert len(commands) == 8  # the CLI block's seven and the scripts' fuzz
    for argv in commands:
        code, lines = run_lines(capsys, argv)
        assert code == 0, argv
        assert lines and lines[-1]["type"] == "summary", argv


def test_csv_summary(capsys, edge_model_path):
    code = run(["exact", "--model", edge_model_path, "--csv"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    header, row = out[-2], out[-1]
    assert header.split(",")[0] == "status"
    assert "ok" in row
