"""Command-line behaviours: scenario validation, exit codes, round-trips."""

import json

import pytest

from klotzcbi.cli import (
    EXIT_NO_BOUND,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNSUPPORTED,
    EXIT_VALIDATION,
    main,
)


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def nuclear_scenario(**extra):
    doc = {
        "metadata": {"id": "nuclear-example", "description": "fault-free goal"},
        "pk": {"epsilon": 0.0, "theta": 0.7, "phi1": 0.75, "phi2": 0.2},
        "observation": {"n": 10**6, "s": 0, "r": 0},
        "claim": {"b": 1e-4},
    }
    doc.update(extra)
    return doc


class TestScenarioValidation:
    def test_unknown_field_path_named(self, tmp_path, capsys):
        doc = nuclear_scenario()
        doc["pk"]["phi3"] = 0.1
        rc = main(["assess", "--scenario", write_scenario(tmp_path, doc)])
        assert rc == EXIT_PARSE
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["path"] == "pk.phi3"

    def test_missing_required_field(self, tmp_path, capsys):
        doc = nuclear_scenario()
        del doc["pk"]["theta"]
        rc = main(["assess", "--scenario", write_scenario(tmp_path, doc)])
        assert rc == EXIT_PARSE
        assert json.loads(capsys.readouterr().out)["error"]["path"] == "pk.theta"

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["assess", "--scenario", str(path)]) == EXIT_PARSE
        capsys.readouterr()

    def test_inconsistent_observation(self, tmp_path, capsys):
        doc = nuclear_scenario()
        doc["observation"] = {"n": 10, "s": 3, "r": 5}
        rc = main(["assess", "--scenario", write_scenario(tmp_path, doc)])
        assert rc == EXIT_PARSE
        assert "observation" in json.loads(capsys.readouterr().out)["error"]["path"]

    def test_claim_above_half_is_validation_error(self, tmp_path, capsys):
        doc = nuclear_scenario(claim={"b": 0.7})
        rc = main(["assess", "--scenario", write_scenario(tmp_path, doc)])
        assert rc == EXIT_VALIDATION
        capsys.readouterr()


class TestAssess:
    def test_report_structure(self, tmp_path, capsys):
        rc = main(["assess", "--scenario", write_scenario(tmp_path, nuclear_scenario())])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["scenario_id"] == "nuclear-example"
        assert report["regime"] == "NoFailures/phi1>=theta"
        assert len(report["worst_case_prior"]) == 4
        assert report["observation"]["first"] == "success"
        theta, phi2, b, n = 0.7, 0.2, 1e-4, 10**6
        expected = theta / (theta + (1 - theta - phi2) * (1 - b) ** n + (1 - b) * phi2)
        assert report["confidence"] == pytest.approx(expected, rel=1e-10)

    def test_zero_confidence_scenario(self, tmp_path, capsys):
        doc = {
            "metadata": {"id": "futile"},
            "pk": {"epsilon": 1e-6, "theta": 0.6, "phi1": 0.65, "phi2": 0.1},
            "observation": {"n": 1000, "s": 3, "r": 1},
            "claim": {"b": 1e-4},
        }
        rc = main(["assess", "--scenario", write_scenario(tmp_path, doc)])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["confidence"] == 0.0
        assert "zero-confidence" in report["regime"]

    def test_unsupported_regime_exit(self, tmp_path, capsys):
        doc = nuclear_scenario()
        doc["pk"] = {"epsilon": 0.0, "theta": 0.3, "phi1": 0.1, "phi2": 0.2,
                     "independence_belief": "strong"}
        rc = main(["assess", "--scenario", write_scenario(tmp_path, doc)])
        assert rc == EXIT_UNSUPPORTED
        capsys.readouterr()

    def test_seventeen_digit_serialisation(self, tmp_path, capsys):
        rc = main(["assess", "--scenario", write_scenario(tmp_path, nuclear_scenario())])
        assert rc == EXIT_OK
        raw = capsys.readouterr().out
        report = json.loads(raw)
        # the printed confidence round-trips to the computed float exactly
        assert float(format(report["confidence"], ".17g")) == report["confidence"]


class TestSweep:
    def sweep_doc(self):
        return nuclear_scenario(
            sweep={
                "axis": "n",
                "values": [10**2, 10**4, 10**6],
                "methods": ["univariate", "klotz_cbi"],
            }
        )

    def test_csv_columns_and_determinism(self, tmp_path, capsys):
        path = write_scenario(tmp_path, self.sweep_doc())
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep", "--scenario", path, "--out", str(out_a)]) == EXIT_OK
        assert main(["sweep", "--scenario", path, "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().strip().splitlines()
        assert lines[0] == "scenario_id,method,axis,value,n,s,r,b,confidence,regime,first,last"
        assert len(lines) == 1 + 2 * 3

    def test_parallel_jobs_identical_output(self, tmp_path):
        path = write_scenario(tmp_path, self.sweep_doc())
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        assert main(["sweep", "--scenario", path, "--out", str(seq)]) == EXIT_OK
        assert main(["sweep", "--scenario", path, "--jobs", "2", "--out", str(par)]) == EXIT_OK
        assert seq.read_bytes() == par.read_bytes()

    def test_empty_sweep_gives_header_only(self, tmp_path):
        doc = self.sweep_doc()
        doc["sweep"]["values"] = []
        out = tmp_path / "empty.csv"
        assert main(["sweep", "--scenario", write_scenario(tmp_path, doc), "--out", str(out)]) == EXIT_OK
        assert out.read_text().strip().splitlines() == [
            "scenario_id,method,axis,value,n,s,r,b,confidence,regime,first,last"
        ]

    def test_json_mirror(self, tmp_path, capsys):
        path = write_scenario(tmp_path, self.sweep_doc())
        assert main(["sweep", "--scenario", path, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 6
        assert {row["method"] for row in payload["rows"]} == {"univariate", "klotz_cbi"}

    def test_unknown_method_path(self, tmp_path, capsys):
        doc = self.sweep_doc()
        doc["sweep"]["methods"] = ["univariate", "nonsense"]
        rc = main(["sweep", "--scenario", write_scenario(tmp_path, doc)])
        assert rc == EXIT_PARSE
        assert json.loads(capsys.readouterr().out)["error"]["path"] == "sweep.methods[1]"


class TestBound:
    def test_univariate_examples(self, tmp_path, capsys):
        doc = {
            "metadata": {"id": "bound-uni"},
            "pk": {"epsilon": 0.0, "theta": 0.7},
            "observation": {"n": 10**5, "s": 0, "r": 0},
            "claim": {"b": 1e-4, "target_confidence": 0.99, "method": "univariate"},
        }
        rc = main(["bound", "--scenario", write_scenario(tmp_path, doc)])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["bound"] == pytest.approx(3.7e-5, rel=0.02)
        assert report["achieved_confidence"] == pytest.approx(0.99, abs=1e-4)

    def test_no_bound_exit(self, tmp_path, capsys):
        doc = {
            "metadata": {"id": "no-bound"},
            "pk": {"epsilon": 1e-5, "theta": 0.7, "phi1": 0.7, "phi2": 0.1},
            "observation": {"n": 10**5, "s": 0, "r": 0},
            "claim": {"b": 1e-4, "target_confidence": 0.9999, "method": "klotz_cbi"},
        }
        rc = main(["bound", "--scenario", write_scenario(tmp_path, doc)])
        assert rc == EXIT_NO_BOUND
        capsys.readouterr()


class TestVerify:
    def scenario(self, tmp_path):
        doc = {
            "metadata": {"id": "verify-me"},
            "pk": {"epsilon": 1e-4, "theta": 0.75, "phi1": 0.75, "phi2": 0.1},
            "observation": {"n": 500, "s": 0, "r": 0},
            "claim": {"b": 1e-3},
            "oracle": {"resolution": 61, "refine_rounds": 1},
        }
        return write_scenario(tmp_path, doc)

    def test_gap_within_bound(self, tmp_path, capsys):
        rc = main(["verify", "--scenario", self.scenario(tmp_path)])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["within_bound"] is True
        assert abs(report["gap"]) <= report["resolution_bound"]

    def test_corrupted_closed_form_detected(self, tmp_path, capsys):
        rc = main(["verify", "--scenario", self.scenario(tmp_path), "--corrupt-test-hook"])
        assert rc not in (EXIT_OK,)
        report = json.loads(capsys.readouterr().out)
        assert report["within_bound"] is False

    def test_n_zero_both_paths_report_theta(self, tmp_path, capsys):
        doc = {
            "metadata": {"id": "n0"},
            "pk": {"epsilon": 1e-4, "theta": 0.42, "phi1": 0.2, "phi2": 0.2},
            "observation": {"n": 0},
            "claim": {"b": 1e-3},
            "oracle": {"resolution": 41, "refine_rounds": 1},
        }
        rc = main(["verify", "--scenario", write_scenario(tmp_path, doc)])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["closed_form"] == pytest.approx(0.42, abs=1e-9)
        assert report["oracle"] == pytest.approx(0.42, abs=1e-9)


class TestSimulateCommands:
    def test_byte_identical_campaigns(self, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", "--x", "0.3", "--lambda", "0.3", "--n", "100", "--seed", "7"]
        assert main(args + ["--out", str(out_a)]) == EXIT_OK
        assert main(args + ["--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        doc = json.loads(out_a.read_text())
        assert doc["generator"] == "pcg64"

    def test_out_of_region_exit(self, capsys):
        rc = main(["simulate", "--x", "0.8", "--lambda", "0.5", "--n", "10", "--seed", "1"])
        assert rc == EXIT_VALIDATION
        capsys.readouterr()

    def test_summarize_all_success(self, tmp_path, capsys):
        campaign = tmp_path / "campaign.json"
        main(["simulate", "--x", "1e-6", "--lambda", "1e-6", "--n", "200",
              "--seed", "5", "--out", str(campaign)])
        rc = main(["summarize", "--campaign", str(campaign)])
        assert rc == EXIT_OK
        obs = json.loads(capsys.readouterr().out)["observation"]
        assert obs == {"n": 200, "s": 0, "r": 0, "first": "success", "last": "success"}

    def test_round_trip_into_assessment(self, tmp_path, capsys):
        campaign = tmp_path / "campaign.json"
        main(["simulate", "--x", "0.01", "--lambda", "0.02", "--n", "5000",
              "--seed", "99", "--out", str(campaign)])
        assert main(["summarize", "--campaign", str(campaign)]) == EXIT_OK
        obs = json.loads(capsys.readouterr().out)["observation"]
        doc = {
            "metadata": {"id": "round-trip"},
            "pk": {"epsilon": 1e-4, "theta": 0.6, "phi1": 0.05, "phi2": 0.05},
            "observation": obs,
            "claim": {"b": 0.05},
        }
        rc = main(["assess", "--scenario", write_scenario(tmp_path, doc)])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["confidence"] <= 1.0
        assert report["observation"] == obs


def _sweep(**sweep):
    return nuclear_scenario(sweep={"axis": "n", "values": [100], "methods": ["univariate"], **sweep})


def _campaign(**changes):
    doc = {"generator": "pcg64", "seed": 1, "ground_truth": {"x": 0.1, "lambda": 0.1},
           "n": 3, "outcomes_rle": "S2F1"}
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    "command, doc, path",
    [
        ("sweep", _sweep(values=["abc"]), "sweep.values[0]"),
        ("sweep", _sweep(beta_alpha="q"), "sweep.beta_alpha"),
        ("summarize", _campaign(ground_truth={"x": 0.1}), "ground_truth.lambda"),
        ("summarize", _campaign(seed="x"), "seed"),
        ("summarize", _campaign(outcomes_rle=17), "outcomes_rle"),
        ("assess", nuclear_scenario(pk=[0.7]), "pk"),
        ("assess", nuclear_scenario(claim={"b": float("inf")}), "claim.b"),
    ],
    ids=["sweep-value", "sweep-beta-alpha", "campaign-lambda", "campaign-seed",
         "campaign-rle-type", "pk-not-object", "claim-infinite"],
)
def test_malformed_input_is_parse_error(tmp_path, capsys, command, doc, path):
    flag = "--campaign" if command == "summarize" else "--scenario"
    rc = main([command, flag, write_scenario(tmp_path, doc)])
    assert rc == EXIT_PARSE
    assert json.loads(capsys.readouterr().out)["error"]["path"] == path
