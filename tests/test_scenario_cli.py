import csv
import io
import json

import pytest

from fhtp import ScenarioError, parse_scenario, scenario_to_dict
from fhtp.cli import main

from .conftest import SCENARIO_DIR

EXAMPLE1 = (SCENARIO_DIR / "example1.json").read_text()
EXAMPLE2 = (SCENARIO_DIR / "example2.json").read_text()


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_example1():
    scenario = parse_scenario(EXAMPLE1)
    assert scenario.num_pairs == 3
    assert scenario.horizon == 5
    assert scenario.gains[0] == (0.5, 0.2, 0.2)
    assert scenario.gamma == (1.0, 1.0, 1.0)
    assert list(scenario.initial_queue()) == [5.0, 5.0, 5.0]


def test_parse_dimension_mismatch():
    doc = json.loads(EXAMPLE1)
    doc["gains"] = doc["gains"][:2]
    with pytest.raises(ScenarioError, match="gains"):
        parse_scenario(json.dumps(doc))


def test_parse_ragged_gains_row():
    doc = json.loads(EXAMPLE1)
    doc["gains"][0] = [0.5, 0.2]
    with pytest.raises(ScenarioError, match=r"gains\[0\]"):
        parse_scenario(json.dumps(doc))


def test_parse_negative_noise():
    doc = json.loads(EXAMPLE1)
    doc["noise"][1] = -0.1
    with pytest.raises(ScenarioError, match=r"noise\[1\]"):
        parse_scenario(json.dumps(doc))


def test_parse_missing_field():
    doc = json.loads(EXAMPLE1)
    del doc["target_rate"]
    with pytest.raises(ScenarioError, match="target_rate"):
        parse_scenario(json.dumps(doc))


def test_parse_power_set_without_zero():
    doc = json.loads(EXAMPLE1)
    doc["power_sets"][2] = [1, 2]
    with pytest.raises(ScenarioError, match=r"power_sets\[2\]"):
        parse_scenario(json.dumps(doc))


def test_parse_gamma_below_one():
    doc = json.loads(EXAMPLE1)
    doc["gamma"] = [1.0, 0.9, 1.0]
    with pytest.raises(ScenarioError, match=r"gamma\[1\]"):
        parse_scenario(json.dumps(doc))


def test_gamma_default_matches_explicit_ones():
    doc = json.loads(EXAMPLE1)
    doc["gamma"] = [1.0, 1.0, 1.0]
    with_gamma = parse_scenario(json.dumps(doc)).channel()
    without = parse_scenario(EXAMPLE1).channel()
    assert with_gamma.gains == without.gains


def test_gamma_divides_diagonal():
    doc = json.loads(EXAMPLE1)
    doc["gamma"] = [2.0, 1.0, 1.0]
    channel = parse_scenario(json.dumps(doc)).channel()
    assert channel.gains[0][0] == 0.25
    assert channel.gains[0][1] == 0.2


def test_scenario_round_trip():
    scenario = parse_scenario(EXAMPLE1)
    again = parse_scenario(json.dumps(scenario_to_dict(scenario)))
    assert again == scenario


def test_cli_check_example1(capsys):
    code, out = run_cli(capsys, "check", str(SCENARIO_DIR / "example1.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["achievable"] is True
    assert payload["p_star"] == 5
    assert payload["verification_ok"] is True
    assert len(payload["policy"]["slots"]) == 5


def test_cli_check_example2_exit_code(capsys):
    code, out = run_cli(capsys, "check", str(SCENARIO_DIR / "example2.json"))
    assert code == 2
    payload = json.loads(out)
    assert payload["achievable"] is False
    assert payload["p_star"] == 8


def test_cli_check_cutoff(capsys):
    code, out = run_cli(capsys, "check", "--cutoff", str(SCENARIO_DIR / "example2.json"))
    assert code == 2
    payload = json.loads(out)
    assert payload["p_star"] is None
    assert payload["certified_lower_bound"] >= 6


def test_cli_check_and_solve_agree(capsys):
    _, check_out = run_cli(capsys, "check", str(SCENARIO_DIR / "example1.json"))
    _, solve_out = run_cli(capsys, "solve", str(SCENARIO_DIR / "example1.json"))
    assert json.loads(check_out)["p_star"] == json.loads(solve_out)["p_star"]


def test_cli_solve_payload_shape(capsys):
    code, out = run_cli(capsys, "solve", str(SCENARIO_DIR / "example1.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["p_star"] == 5
    assert len(payload["actions"]) == 5
    assert len(payload["queue_trajectory"]) == 6
    assert set(payload["stats"]) == {"expanded", "generated", "pruned", "ebf", "wall_ms", "refined_size"}
    assert payload["stats"]["refined_size"] == 7


def test_cli_region_csv(capsys):
    code, out = run_cli(capsys, "region", str(SCENARIO_DIR / "example1.json"))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8
    assert sum(int(r["frontier"]) for r in rows) == 7
    assert sum(int(r["weak_frontier"]) for r in rows) == 7


def test_cli_region_out_file(tmp_path, capsys):
    target = tmp_path / "region.csv"
    code, _ = run_cli(capsys, "region", str(SCENARIO_DIR / "example1.json"), "--out", str(target))
    assert code == 0
    rows = list(csv.DictReader(target.open()))
    assert len(rows) == 8


def test_cli_oracle(capsys):
    code, out = run_cli(
        capsys, "oracle", str(SCENARIO_DIR / "example1.json"), "--depth-cap", "6"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["p_star"] == 5
    assert len(payload["witness_actions"]) == 5


def test_cli_counterexample_canned(capsys):
    code, out = run_cli(capsys, "counterexample")
    assert code == 0
    payload = json.loads(out)
    assert payload["quadrant"] == "astar_only"
    assert payload["astar"]["p_star"] == 1
    assert payload["max_weight"]["cleared"] is False
    assert payload["max_weight"]["powers"][0] == [0.0, 2.0]


def test_cli_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 64


def test_cli_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 65


@pytest.mark.parametrize(
    "path, value",
    [
        (("gains", 1, 2), float("nan")),
        (("target_rate", 1), float("inf")),
        (("power_sets", 0, 1), float("inf")),
        (("slot_duration",), float("nan")),
        # finite, but a received power, a peak SINR or a backlog overflows
        (("gains", 0, 0), 1e308),
        (("noise", 0), 1e-320),
        (("target_rate", 0), 1e308),
        pytest.param(("horizon",), 10**400, id="horizon-1e400"),
    ],
)
def test_cli_rejects_non_finite_values(tmp_path, capsys, path, value):
    doc = json.loads(EXAMPLE1)
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    holder[last] = value
    scenario = tmp_path / "non_finite.json"
    scenario.write_text(json.dumps(doc))  # NaN / Infinity tokens, which json reads back
    assert main(["check", str(scenario)]) == 65
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "gain, noise, gamma, code",
    [
        # the raw peak SINR 2e310 overflows, the post-gap one (2e290) does not
        (1e300, 1e-10, 1e20, 0),
        # the post-gap desired-link gain underflows to 0
        (1e-300, 0.1, 1e100, 65),
    ],
)
def test_cli_checks_float_range_on_post_gap_gains(tmp_path, capsys, gain, noise, gamma, code):
    doc = json.loads(EXAMPLE1)
    doc["gains"][0][0] = gain
    doc["noise"][0] = noise
    doc["gamma"] = [gamma, 1.0, 1.0]
    scenario = tmp_path / "gap.json"
    scenario.write_text(json.dumps(doc))
    assert main(["check", str(scenario)]) == code


def test_cli_missing_file(capsys):
    assert main(["check", "/nonexistent/nope.json"]) == 65


def test_cli_guard_exit(tmp_path, capsys):
    doc = json.loads(EXAMPLE1)
    doc["power_sets"] = [list(range(0, 102)) for _ in range(3)]
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    assert main(["region", str(big)]) == 70


def test_cli_montecarlo_csv(capsys):
    code, out = run_cli(
        capsys,
        "montecarlo",
        str(SCENARIO_DIR / "example1.json"),
        "--m",
        "1,3",
        "--trials",
        "20",
        "--seed",
        "7",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == [
        "m",
        "trials",
        "solved",
        "avg_ebf",
        "avg_expanded",
        "avg_wall_ms",
        "unachievable",
        "failed",
        "achievable_fraction",
        "max_refined_size",
    ]
    assert [r["m"] for r in rows] == ["1", "3"]
    for r in rows:
        assert int(r["solved"]) + int(r["unachievable"]) + int(r["failed"]) == 20
        assert float(r["achievable_fraction"]) == pytest.approx(int(r["solved"]) / 20, rel=1e-5)
        assert int(r["max_refined_size"]) > 0


def test_cli_montecarlo_env_seed_override(capsys, monkeypatch):
    argv = [
        "montecarlo",
        str(SCENARIO_DIR / "example1.json"),
        "--m",
        "2",
        "--trials",
        "15",
        "--seed",
        "1",
    ]
    def deterministic_columns(text):
        # the wall-clock column varies run to run
        return [
            {k: v for k, v in row.items() if k != "avg_wall_ms"}
            for row in csv.DictReader(io.StringIO(text))
        ]

    monkeypatch.setenv("FHTP_SEED", "99")
    _, with_env = run_cli(capsys, *argv)
    monkeypatch.delenv("FHTP_SEED")
    _, seed_99 = run_cli(capsys, *argv[:-1] + ["99"])
    _, seed_1 = run_cli(capsys, *argv)
    assert deterministic_columns(with_env) == deterministic_columns(seed_99)
    assert deterministic_columns(with_env) != deterministic_columns(seed_1)
