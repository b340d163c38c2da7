"""CLI and text-rendering helpers."""

from __future__ import annotations

import json
import socket

import pytest

from repro import obs
from repro.cli import EXPERIMENTS, main
from repro.harness.reporting import render_series, render_table


@pytest.fixture(autouse=True)
def _clean_obs():
    """Keep the global metrics/trace state from leaking across tests."""
    obs.disable()
    obs.disable_tracing()
    obs.reset()
    obs.clear_trace()
    yield
    obs.disable()
    obs.disable_tracing()
    obs.reset()
    obs.clear_trace()


class TestRenderTable:
    def test_alignment_and_headers(self):
        out = render_table(
            ["name", "value"], [["a", 1.2345], ["longer", 2]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "1.23" in out  # float formatting

    def test_empty_rows(self):
        out = render_table(["a", "b"], [])
        assert "a" in out and "b" in out

    def test_first_column_left_aligned(self):
        out = render_table(["k", "v"], [["x", 1], ["yy", 2]])
        data_lines = out.splitlines()[2:]
        assert data_lines[0].startswith("x ")


class TestRenderSeries:
    def test_series_layout(self):
        out = render_series(
            "x", [1, 2, 3], {"s1": [0.1, 0.2, 0.3], "s2": [1, 2, 3]}
        )
        assert "s1" in out and "s2" in out
        assert "0.10" in out

    def test_custom_format(self):
        out = render_series("x", [1], {"s": [0.5]}, fmt="{:.0%}")
        assert "50%" in out


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_exits_nonzero(self, capsys):
        for name in ("nonsense", "bench-" "serve"):  # a typo, a deleted command
            assert main([name]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1  # one-line error, no traceback
            assert "unknown experiment" in err and repr(name) in err

    def test_bad_scale_exits_nonzero(self, capsys):
        assert main(["table5", "--scale", "galactic"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "invalid scale" in err and "galactic" in err

    @pytest.mark.parametrize(
        "argv", [["chaos", "--prewarm"], ["table3", "--hot-fraction", "0.1"]]
    )
    def test_removed_tiering_flags_fail_argument_parsing(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code not in (0, None)
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [["--sweep", "bogus"], ["--plan", "nope=1"]])
    def test_failed_command_leaves_no_telemetry_installed(self, bad, tmp_path, capsys):
        flags = ["--stats", "--trace", str(tmp_path / "t.json")]
        flags += ["--events", str(tmp_path / "audit.jsonl")]
        assert main(["chaos", *bad, *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not obs.enabled()
        assert not obs.tracing_enabled()
        assert obs.event_log() is None

    @pytest.mark.parametrize("command", ["serve", "chaos"])
    def test_workers_is_refused_by_serving_commands(self, command, capsys):
        assert main([command, "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--workers fans experiment grids" in err and "repro cluster" in err

    @pytest.mark.parametrize("argv", [["serve", "--scale", "smoke"], ["node", "n0"]])
    def test_busy_port_is_a_one_line_error(self, argv, capsys):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            assert main([*argv, "--port", str(port)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"127.0.0.1:{port}" in err

    def test_workers_still_fans_the_experiment_grid(self, capsys):
        assert main(["table3", "--scale", "smoke", "--workers", "2"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_runs_table5_smoke(self, capsys):
        assert main(["table5", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Table V" in out
        assert "finished in" in out

    def test_runs_fig9_smoke(self, capsys):
        assert main(["fig9", "--scale", "smoke"]) == 0
        assert "ver_sep" in capsys.readouterr().out

    def test_every_experiment_registered(self):
        assert set(EXPERIMENTS) == {
            "table3",
            "table4",
            "table5",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
        }


#: Counter names the --stats snapshot of a table3 run must contain — one
#: per instrumented layer (the stable public naming scheme of DESIGN.md
#: Sec. 9; treat renames as breaking changes).
REQUIRED_COUNTERS = [
    "otp.cache.hit",
    "otp.cache.miss",
    # The limb dot kernel counts under the serving tier that ran it:
    # the NumPy tiers ("limb.dot.tier1") or a compiled backend
    # ("limb.dot.native") when repro.kernels resolved one.
    ("limb.dot.tier1", "limb.dot.native"),
    "protocol.queries",
    "ndp.packets",
    "memsim.activates",
]


class TestCliStats:
    def test_stats_and_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        assert main(
            ["table3", "--scale", "smoke", "--stats", "--trace", str(trace_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "== metrics ==" in out
        for name in REQUIRED_COUNTERS:
            alts = name if isinstance(name, tuple) else (name,)
            assert any(a in out for a in alts), f"snapshot missing {alts}"
        # Phase timers from the protocol spans.
        assert "protocol.verify.ns" in out

        payload = json.loads(trace_path.read_text())
        events = payload["traceEvents"]
        assert events, "trace has no events"
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
            assert event["name"]
        names = {e["name"] for e in events}
        assert "experiment.table3" in names
        assert "ndp.run" in names

    def test_stats_without_trace(self, capsys):
        assert main(["table5", "--scale", "smoke", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "== metrics ==" in out
        assert "memsim.activates" in out
        # main() restores the disabled default before returning.
        assert not obs.enabled()
        assert not obs.tracing_enabled()

    def test_disabled_run_records_nothing(self, capsys):
        assert main(["table5", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "== metrics ==" not in out
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["timers"] == {}
        assert obs.trace_events() == []
