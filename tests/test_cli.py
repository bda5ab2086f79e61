"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_experiment_subcommands_exist(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.command == "table1"

    def test_runs_flag(self):
        args = build_parser().parse_args(["fig3a", "--runs", "3"])
        assert args.runs == 3

    def test_run_subcommand(self):
        args = build_parser().parse_args(
            ["run", "CG", "--controller", "duf", "--slowdown", "20"]
        )
        assert args.app == "CG"
        assert args.controller == "duf"
        assert args.slowdown == 20.0

    def test_bad_controller_rejected(self, capsys):
        # Unknown policies now fail at registry resolution, not argparse.
        assert main(["run", "CG", "--controller", "magic"]) == 1
        err = capsys.readouterr().err
        assert "error" in err and "magic" in err

    def test_sweep_controller_flag(self):
        args = build_parser().parse_args(
            ["sweep", "--controller", "dnpc", "--controller", "budget:watts=95"]
        )
        assert args.controller == ["dnpc", "budget:watts=95"]

    def test_workers_and_cache_flags(self):
        args = build_parser().parse_args(
            ["fig3a", "--workers", "4", "--cache", "/tmp/c"]
        )
        assert args.workers == 4
        assert args.cache == "/tmp/c"

    def test_sweep_grid_flags(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--apps", "CG", "EP",
                "--tolerances", "0", "10",
                "--scale", "0.5",
                "--workers", "2",
            ]
        )
        assert args.apps == ["CG", "EP"]
        assert args.tolerances == [0.0, 10.0]
        assert args.scale == 0.5


class TestMain:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "repro" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "CG" in out and "fig3a" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_run_single(self, capsys):
        assert main(["run", "EP", "--controller", "default"]) == 0
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "avg package power" in out

    def test_run_dufp(self, capsys):
        assert main(["run", "CG", "--controller", "dufp", "--slowdown", "10"]) == 0
        assert "dufp" in capsys.readouterr().out

    def test_run_static_cap(self, capsys):
        assert main(
            ["run", "EP", "--controller", "static", "--cap", "100"]
        ) == 0
        assert "static-100W" in capsys.readouterr().out

    def test_unknown_app_is_clean_error(self, capsys):
        assert main(["run", "NOPE"]) == 1
        assert "error" in capsys.readouterr().err

    def test_sweep_reduced_grid(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--apps", "EP",
            "--tolerances", "0",
            "--runs", "1",
            "--scale", "0.2",
            "--cache", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "executed 3 of 3" in out  # default + duf + dufp
        assert main(argv) == 0  # warm rerun: everything cached
        assert "executed 0 of 3" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro 1.0.0" in capsys.readouterr().out


class TestBudgetFillsPolicy:
    """``--budget`` reaches a ``--policy`` that leaves ``budget_w`` out."""

    CLUSTER = ["cluster", "--nodes", "2", "--scale", "0.2"]
    HETERO = ["hetero", "--scale", "0.2", "--kernels", "2"]

    def test_cluster_budget_fills_spec(self, capsys):
        argv = self.CLUSTER + ["--budget", "200", "--policy", "fleet-demand"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("fleet budget 200 W")
        assert "policy=fleet-demand-200W budget_w=200 " in out
        assert "250" not in out.split("\n")[0]

    def test_hetero_budget_fills_spec(self, capsys):
        argv = self.HETERO + ["--budget", "200", "--policy", "hetero-coord"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("shared budget 200 W")
        assert "policy=hetero-coord-200W budget_w=200 " in out

    @pytest.mark.parametrize(
        "argv",
        [
            CLUSTER + ["--budget", "200", "--policy", "fleet-demand:budget_w=250"],
            HETERO + ["--budget", "200", "--policy", "hetero-coord:budget_w=300"],
        ],
        ids=["cluster", "hetero"],
    )
    def test_conflicting_budgets_rejected(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "budget_w=" in err and "--budget is 200" in err

    @pytest.mark.parametrize(
        "argv, label",
        [
            (
                CLUSTER + ["--budget", "190", "--policy", "fleet-fair:budget_w=190"],
                "policy=fleet-fair-190W",
            ),
            (
                HETERO + ["--policy", "hetero-fair:budget_w=250"],
                "policy=hetero-fair-250W",
            ),
        ],
        ids=["agreeing", "spec-only"],
    )
    def test_explicit_spec_budget_kept(self, argv, label, capsys):
        assert main(argv) == 0
        assert label in capsys.readouterr().out

    def test_subcommand_default_fills_spec(self, capsys):
        assert main(self.CLUSTER + ["--policy", "fleet-static"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fleet budget 200 W")
        assert "policy=fleet-static-200W" in out

    @pytest.mark.parametrize(
        "argv",
        [CLUSTER + ["--policy", "dufp"], HETERO + ["--policy", "duf"]],
        ids=["cluster", "hetero"],
    )
    def test_policy_without_budget_rejected(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "budget_w" in err
