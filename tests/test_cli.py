"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.app == "tvants"
        assert args.duration == 300.0

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--app", "bittorrent"])

    def test_campaign_apps(self):
        args = build_parser().parse_args(["campaign", "--apps", "tvants", "sopcast"])
        assert args.apps == ["tvants", "sopcast"]

    def test_campaign_resilience_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--max-retries", "2", "--validate",
             "--checkpoint-dir", "ck", "--impair", "0.5"]
        )
        assert args.max_retries == 2
        assert args.validate
        assert args.checkpoint_dir == "ck"
        assert args.impair == 0.5

    def test_robustness_defaults(self):
        args = build_parser().parse_args(["robustness"])
        assert args.app == "tvants"
        assert args.severities == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_profile_flag(self):
        args = build_parser().parse_args(["campaign"])
        assert args.profile is None
        args = build_parser().parse_args(["campaign", "--profile"])
        assert args.profile == "auto"
        args = build_parser().parse_args(["simulate", "--profile", "x.pstats"])
        assert args.profile == "x.pstats"

    @pytest.mark.parametrize(
        "command", ["simulate", "campaign", "replicate", "robustness"]
    )
    def test_scheduler_flag(self, command):
        args = build_parser().parse_args([command])
        assert args.scheduler is None  # resolve at run time (env default)
        args = build_parser().parse_args([command, "--scheduler", "rarest"])
        assert args.scheduler == "rarest"


class TestSchedulerErrors:
    """Unknown policy names fail fast with the valid choices listed."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--scheduler", "bittorrent"],
            ["campaign", "--scheduler", "bittorrent"],
            ["replicate", "--scheduler", "bittorrent"],
            ["robustness", "--scheduler", "bittorrent"],
        ],
    )
    def test_unknown_scheduler_exits_2_naming_choices(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "unknown chunk scheduler 'bittorrent'" in err
        for name in ("mesh-pull", "rarest", "edf", "push"):
            assert name in err

    def test_bad_env_scheduler_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCHEDULER", "carrier-pigeon")
        assert main(["simulate", "--duration", "1"]) == 2
        assert "carrier-pigeon" in capsys.readouterr().err

    def test_flag_overrides_bad_env(self, monkeypatch, tmp_path, capsys):
        # An explicit --scheduler wins before the env default is even read.
        monkeypatch.setenv("REPRO_SCHEDULER", "carrier-pigeon")
        out = tmp_path / "t.npz"
        rc = main(
            ["simulate", "--scheduler", "mesh-pull", "--duration", "5",
             "--out", str(out)]
        )
        assert rc == 0 and out.exists()


class TestEndToEnd:
    def test_simulate_with_scheduler_records_it(self, tmp_path):
        from repro.trace.store import load_trace_bundle

        out = tmp_path / "r.npz"
        rc = main(
            ["simulate", "--app", "tvants", "--duration", "10", "--seed", "3",
             "--scheduler", "rarest", "--out", str(out)]
        )
        assert rc == 0
        assert load_trace_bundle(out).meta["scheduler"] == "rarest"

    def test_simulate_then_analyze(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        rc = main(
            ["simulate", "--app", "tvants", "--duration", "25", "--seed", "3",
             "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "trace bundle written" in captured

        rc = main(["analyze", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "TABLE IV" in captured
        assert "self-induced bias" in captured

    def test_replicate_command(self, capsys):
        rc = main(
            ["replicate", "--duration", "20", "--scale", "0.3",
             "--seeds", "5", "6"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "replications" in out
        assert "pass rates" in out

    def test_localize_command(self, capsys):
        rc = main(["localize", "--duration", "20", "--scale", "0.3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "LOCALIZATION" in out

    def test_single_app_campaign(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # default --manifest writes to cwd
        rc = main(
            ["campaign", "--apps", "tvants", "--duration", "20", "--scale", "0.5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "TABLE IV" in out
        assert "FIGURE 2" in out
        # Shape checks need all three apps; skipped for one.
        assert "shape checks" not in out
        assert (tmp_path / "run_manifest.json").exists()

    def test_campaign_manifest_and_stats(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        rc = main(
            ["campaign", "--apps", "tvants", "--duration", "20", "--scale", "0.5",
             "--manifest", str(manifest)]
        )
        assert rc == 0
        assert manifest.exists()
        capsys.readouterr()

        rc = main(["stats", str(manifest)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SHARDS" in out
        assert "STAGE TIMERS" in out
        assert "tvants" in out

    def test_stats_diff(self, tmp_path, capsys):
        from repro.obs.manifest import RunManifest, config_digest, write_manifest

        def make(seed):
            cfg = {"seed": seed, "apps": ["tvants"]}
            return RunManifest(config=cfg, config_hash=config_digest(cfg))

        a = write_manifest(tmp_path / "a.json", make(1))
        b = write_manifest(tmp_path / "b.json", make(1))
        c = write_manifest(tmp_path / "c.json", make(2))

        assert main(["stats", "--diff", str(a), str(b)]) == 0
        assert "configs match" in capsys.readouterr().out

        # Different configurations: report the changed keys, exit nonzero.
        assert main(["stats", "--diff", str(a), str(c)]) == 1
        out = capsys.readouterr().out
        assert "CONFIG MISMATCH" in out
        assert "seed" in out

    def test_stats_diff_needs_two_manifests(self, tmp_path, capsys):
        from repro.obs.manifest import RunManifest, write_manifest

        a = write_manifest(tmp_path / "a.json", RunManifest())
        assert main(["stats", "--diff", str(a)]) == 2

    def test_campaign_profile_dump_recorded_in_manifest(self, tmp_path, capsys):
        import json
        import pstats

        manifest = tmp_path / "m.json"
        rc = main(
            ["campaign", "--apps", "tvants", "--duration", "20", "--scale", "0.5",
             "--manifest", str(manifest), "--profile"]
        )
        assert rc == 0
        profile_path = tmp_path / "m.pstats"
        assert profile_path.exists()
        doc = json.loads(manifest.read_text())
        assert doc["artifacts"]["profile"] == str(profile_path)
        # The dump is a loadable pstats file with real samples.
        stats = pstats.Stats(str(profile_path))
        assert stats.total_calls > 0

    def test_simulate_profile_explicit_path(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        prof = tmp_path / "sim.pstats"
        rc = main(
            ["simulate", "--app", "tvants", "--duration", "20", "--seed", "3",
             "--out", str(out), "--profile", str(prof)]
        )
        assert rc == 0
        assert prof.exists()

    def test_simulate_out_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "deeper" / "x.npz"
        rc = main(
            ["simulate", "--app", "tvants", "--duration", "5", "--seed", "3",
             "--out", str(out), "--profile"]
        )
        assert rc == 0
        assert out.exists()
        assert (out.parent / "x.npz.pstats").exists()

    def test_campaign_no_manifest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(
            ["campaign", "--apps", "tvants", "--duration", "20", "--scale", "0.5",
             "--no-manifest"]
        )
        assert rc == 0
        assert not (tmp_path / "run_manifest.json").exists()

    def test_robustness_command(self, capsys):
        rc = main(
            ["robustness", "--duration", "20", "--scale", "0.4",
             "--severities", "0.0", "1.0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ROBUSTNESS" in out
        assert "max drift" in out


class TestErrorExit:
    def test_repro_error_exits_2_with_message(self, capsys):
        rc = main(["analyze", "no-such-trace.npz"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-p2ptv: error:")
        assert "\n" == err[err.index("\n") :]  # exactly one line

    def test_supervised_backend_exits_2_naming_choices(self, monkeypatch, capsys):
        # The process pool is the supervised pool; there is no third name.
        with pytest.raises(SystemExit) as info:
            main(["campaign", "--backend", "supervised"])
        assert info.value.code == 2
        assert "choose from 'serial', 'process'" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "supervised")
        assert main(["campaign", "--apps", "tvants", "--duration", "1"]) == 2
        assert "choose from ('serial', 'process')" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--apps", "tvants", "--duration", "10", "--scale", "nan"],
            ["campaign", "--apps", "tvants", "--duration", "nan"],
            ["robustness", "--app", "tvants", "--scale", "inf"],
            ["simulate", "--app", "tvants", "--duration", "inf"],
        ],
    )
    def test_non_finite_scale_or_duration_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-p2ptv: error:")
        assert "finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--app", "tvants", "--seed", "-1"],
            ["campaign", "--apps", "tvants", "--seed", "-1"],
            ["robustness", "--app", "tvants", "--seed", "-2"],
            ["campaign", "--apps", "tvants", "--impair", "0.5", "--fault-seed", "-1"],
        ],
    )
    def test_negative_seed_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-p2ptv: error:")
        assert "seed must be non-negative" in err
        assert "\n" == err[err.index("\n") :]  # exactly one line

    def test_duplicate_replication_seeds_exit_2(self, capsys):
        # ``--seeds 1 1`` would average one replica with itself.
        assert main(["replicate", "--seeds", "1", "1"]) == 2
        assert "distinct" in capsys.readouterr().err

    def test_corrupt_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not an archive")
        rc = main(["analyze", str(bad)])
        assert rc == 2
        assert "error" in capsys.readouterr().err
