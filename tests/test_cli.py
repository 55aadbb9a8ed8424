"""Command-line interface: JSON-lines reports, exit codes, round trips."""

import json
import math

import pytest

from potts_gks import PottsModel, augment, make_family, rc_probability, verify
from potts_gks.cli import run
from potts_gks.mc import estimate_pooled

LN3 = math.log(3)


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
    code, lines = run_lines(capsys, ["fclass", "--kind", "B", "--q", "4", "--M", "48"])
    assert code == 0
    assert lines[0]["type"] == "membership"
    assert lines[0]["verdict"] == "pass"
    assert lines[-1]["type"] == "summary"


def test_fclass_non_member_exits_one(capsys):
    code, lines = run_lines(
        capsys,
        ["fclass", "--kind", "table", "--q", "2", "--values", "[1.0, -2.0]"],
    )
    assert code == 1
    assert lines[0]["verdict"] == "fail"
    assert lines[0]["first_violation"][:2] == [1, 0]


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


def test_verify_uncertified_is_input_error(capsys, edge_model_path):
    spec = json.dumps({"kind": "table", "q": 2, "values": [1.0, -2.0]})
    code = run(["verify", "gks", "--model", edge_model_path, "--f", spec,
                "--R", "u", "--S", "v"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not certified" in err


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


def test_function_q_mismatch_exits_two(capsys, edge_model_path):
    spec = json.dumps({"kind": "A", "q": 5})
    code = run(["verify", "gks", "--model", edge_model_path, "--f", spec,
                "--R", "u", "--S", "v"])
    assert code == 2


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
    assert by_type["rc_normalization"]["verdict"] == "pass"
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


@pytest.mark.parametrize(
    "omega, message",
    [
        ("102", "bond configuration must be 3 bits over E+, got [1, 0, 2]"),
        ("10", "bond configuration must be 3 bits over E+, got [1, 0]"),
        ("1x0", "invalid literal for int()"),
    ],
)
def test_rc_malformed_omega_exits_2(capsys, edge_model_path, omega, message):
    code = run(["rc", "--model", edge_model_path, "--omega", omega])
    assert code == 2
    assert message in capsys.readouterr().err


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


def test_mc_requires_seed(capsys, edge_model_path):
    with pytest.raises(SystemExit) as exc:
        run(["mc", "--model", edge_model_path, "--sweeps", "100"])
    assert exc.value.code == 2


def test_fuzz_command(capsys):
    code, lines = run_lines(
        capsys, ["fuzz", "--trials", "50", "--seed", "42", "--n-max", "4"]
    )
    assert code == 0
    assert lines[-1]["type"] == "summary"
    assert lines[-1]["violations"] == 0
    assert lines[-1]["trials"] == 50


def test_cap_flag_limits_enumeration(capsys, edge_model_path):
    code = run(["rc", "--model", edge_model_path, "--cap", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert "exceed" in err


def test_csv_summary(capsys, edge_model_path):
    code = run(["exact", "--model", edge_model_path, "--csv"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    header, row = out[-2], out[-1]
    assert header.split(",")[0] == "status"
    assert "ok" in row
