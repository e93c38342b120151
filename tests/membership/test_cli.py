"""CLI surface of the membership plane: --json listings, churn train."""

import json

import pytest

from repro.cli import main


class TestProtocolsJson:
    def test_json_is_machine_readable(self, capsys):
        assert main(["protocols", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {row["name"]: row for row in rows}
        for row in rows:
            assert set(row) == {
                "name",
                "aliases",
                "summary",
                "paper",
                "elastic",
            }
        # The full-grid elasticity contract: every built-in survives
        # membership churn, so every row advertises elastic.
        assert by_name["hop"]["elastic"] is True
        assert all(row["elastic"] is True for row in rows), by_name

    def test_human_output_marks_elastic(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        assert "elastic: survives membership churn" in out


class TestScenariosJson:
    def test_json_is_machine_readable(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {row["name"]: row for row in rows}
        for row in rows:
            assert set(row) == {
                "name",
                "aliases",
                "summary",
                "paper",
                "universal",
            }
        assert by_name["churn"]["universal"] is False
        assert by_name["churn-poisson"]["universal"] is False
        assert by_name["random"]["universal"] is True

    def test_churn_families_listed(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "churn" in out and "churn-poisson" in out


class TestTrainChurn:
    def test_train_hop_under_churn(self, capsys):
        code = main(
            [
                "train",
                "--protocol",
                "hop",
                "--workers",
                "6",
                "--iterations",
                "10",
                "--scenario",
                "churn",
                "--scenario-param",
                'leaves={"5": 3}',
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "membership:" in out
        assert "leave w5@3" in out

    def test_train_poisson_churn_with_policy(self, capsys):
        code = main(
            [
                "train",
                "--protocol",
                "hop",
                "--workers",
                "8",
                "--iterations",
                "12",
                "--scenario",
                "churn-poisson",
                "--scenario-param",
                "rate=0.3",
                "--scenario-param",
                "horizon=10",
                "--scenario-param",
                "policy=metropolis",
            ]
        )
        assert code == 0
        assert "wall_time" in capsys.readouterr().out

    def test_non_elastic_protocol_rejects_churn(self, capsys):
        # Every built-in is elastic now, so the CLI-facing half of the
        # registry gate is exercised through a throwaway registration.
        from repro.protocols.registry import PROTOCOLS, register_protocol

        name = "test-static-cli"
        register_protocol(
            name,
            lambda spec: pytest.fail("builder must not run: gate fires first"),
            summary="non-elastic dummy for the CLI churn gate",
        )
        try:
            with pytest.raises(SystemExit, match="not elastic"):
                main(
                    [
                        "train",
                        "--protocol",
                        name,
                        "--workers",
                        "6",
                        "--iterations",
                        "6",
                        "--scenario",
                        "churn",
                    ]
                )
        finally:
            PROTOCOLS.remove(name)

    def test_run_summary_includes_membership_events(self, tmp_path, capsys):
        out_path = tmp_path / "run.json"
        code = main(
            [
                "train",
                "--protocol",
                "hop",
                "--workers",
                "6",
                "--iterations",
                "10",
                "--scenario",
                "churn",
                "--scenario-param",
                'leaves={"5": 3}',
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        kinds = [event["kind"] for event in payload["membership_events"]]
        assert kinds == ["leave", "rewire"]
        rewire = payload["membership_events"][1]
        assert rewire["spectral_gap"] > 0
