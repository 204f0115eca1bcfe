"""CLI subcommands: run, sweep, diff-traces, golden."""

import json
from dataclasses import replace

import pytest

from phalanx.cli import main
from phalanx.metrics import traces_prefix_consistent

SCENARIO = """
n = 4
f = 1
proposers = 1
commands_per_proposer = 8
seed = 31
strategy = anchor
"""

SWEEP = """
n = 4
f = 1
proposers = 1
commands_per_proposer = 6
seed = 1
sweep_byzantine = 0..1
sweep_behavior = shuffle
strategies = anchor, timestamp
reps = 2
base_seed = 50
"""


SWEEP_HEAD = "n = 4\nf = 1\nsweep_byzantine = 0..1\n"

# Cut short by max_sim_ms while the honest nodes hold 1, 0 and 0 commands
# (1, 1 and 0 with PRE_ORDER_WINDOW patched to 1).
CUT_SHORT = """
n = 4
f = 1
proposers = 1
commands_per_proposer = 20
latency = 1..300
max_sim_ms = 900
byzantine = 1:shuffle
seed = 1
strategy = anchor
"""

SILENT_SEQUENCER = """
n = 4
f = 1
proposers = 1
commands_per_proposer = 30
byzantine = 0:silent
seed = 1
strategy = anchor
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(SCENARIO)
    return path


class TestRun:
    def test_writes_json_and_traces(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", str(scenario_file), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "result.json").read_text())
        assert payload["reordered_ratio"] == 0.0
        traces = sorted(p.name for p in out.glob("trace_node*.txt"))
        assert traces == [f"trace_node{i}.txt" for i in range(4)]
        stdout = capsys.readouterr().out
        assert '"consistency": true' in stdout

    def test_seed_and_strategy_overrides(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        code = main(["run", str(scenario_file), "--out", str(out),
                     "--seed", "77", "--strategy", "timestamp"])
        assert code == 0
        payload = json.loads((out / "result.json").read_text())
        assert payload["scenario"]["seed"] == 77
        assert payload["scenario"]["strategy"] == "timestamp"

    def test_malformed_scenario_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("n = 5\nf = 1\n")
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.txt"), "--out", str(tmp_path)]) == 2

    def test_non_utf8_file_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"n = 4\n# caf\xe9\n")
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "config error: cannot read scenario file:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line, message", [
        ("propose_interval = -50", "propose_interval must be >= 0 ms"),
        ("batch_size = 0", "batch_size must be >= 1"),
        ("resend_ms = -1", "resend_ms must be >= 0 ms"),
        ("max_sim_ms = -1", "max_sim_ms must be >= 0 ms"),
        ("latency = 3-7", "bad latency spec"),
        ("byzantine = 1:skew:-40+skew:10", "repeated behavior 'skew'"),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, line, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(line + "\n")
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_repeated_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("byzantine = 3:shuffle\nseed = 1\nbyzantine = 2:silent\n")
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "config error: line 3: key 'byzantine' repeats line 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_dump_batches(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(scenario_file), "--out", str(out), "--dump-batches"]) == 0
        assert (out / "batches.txt").read_text().strip()

    def test_result_json_stable_across_reruns(self, scenario_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(scenario_file), "--out", str(out_a)])
        main(["run", str(scenario_file), "--out", str(out_b)])
        assert (out_a / "result.json").read_bytes() == (out_b / "result.json").read_bytes()

    def test_cut_short_run_with_agreeing_prefixes_exits_1(self, tmp_path, capsys):
        path = tmp_path / "cut.txt"
        path.write_text(CUT_SHORT)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert "duration guard" in capsys.readouterr().err
        payload = json.loads((out / "result.json").read_text())
        assert payload["non_quiescent"] and not payload["consistency"]
        assert payload["prefix_consistent"]

    def test_cut_short_run_with_divergent_traces_exits_3(self, tmp_path, capsys,
                                                         monkeypatch):
        # Node 0's only commit is swapped for another digest, so the honest
        # traces are no longer prefixes of one order. That needs a second node
        # to have committed by the cut, which holds with one log awaiting votes
        # at a time.
        import phalanx.cli as cli
        import phalanx.mempool

        monkeypatch.setattr(phalanx.mempool, "PRE_ORDER_WINDOW", 1)

        real_run = cli.run

        def diverging(scenario, **kwargs):
            result = real_run(scenario, **kwargs)
            trace = result.traces[0]
            trace[0] = replace(trace[0], digest=b"\x00" * 32)
            result.consistency = False
            result.prefix_consistent = traces_prefix_consistent(list(result.traces.values()))
            return result

        monkeypatch.setattr(cli, "run", diverging)
        path = tmp_path / "cut.txt"
        path.write_text(CUT_SHORT)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "consistency violation" in capsys.readouterr().err

    def test_quiescent_run_with_uncommitted_commands_exits_4(self, tmp_path, capsys):
        path = tmp_path / "silent.txt"
        path.write_text(SILENT_SEQUENCER)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 4
        assert "30 of 30 commands uncommitted" in capsys.readouterr().err
        payload = json.loads((out / "result.json").read_text())
        assert not payload["non_quiescent"] and payload["consistency"]

    def test_unwritable_out_exits_2_before_simulating(self, scenario_file, tmp_path,
                                                      capsys, monkeypatch):
        blocker = tmp_path / "plain"
        blocker.write_text("a regular file")
        monkeypatch.setattr("phalanx.cli.run", lambda *a, **k: pytest.fail("simulated"))
        assert main(["run", str(scenario_file), "--out", str(blocker / "out")]) == 2
        assert "output error:" in capsys.readouterr().err


class TestSweep:
    def test_csv_shape_and_determinism(self, tmp_path):
        sweep_file = tmp_path / "sweep.txt"
        sweep_file.write_text(SWEEP)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep", str(sweep_file), "--out", str(out_a)]) == 0
        assert main(["sweep", str(sweep_file), "--out", str(out_b)]) == 0
        text = out_a.read_text()
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "byzantine", "strategy", "rep", "seed", "reordered_ratio",
            "alter_path_ratio", "consistency", "resisted", "uncommitted",
            "non_quiescent", "commit_latency_p50_ms", "commit_latency_p99_ms",
        ]
        # 2 byz values x 2 strategies x 2 reps
        assert len(lines) == 1 + 8
        assert text == out_b.read_text()

    def test_rep_override(self, tmp_path):
        sweep_file = tmp_path / "sweep.txt"
        sweep_file.write_text(SWEEP)
        out = tmp_path / "c.csv"
        assert main(["sweep", str(sweep_file), "--out", str(out), "--reps", "1"]) == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 4

    def test_bad_sweep_exits_2(self, tmp_path):
        sweep_file = tmp_path / "sweep.txt"
        sweep_file.write_text("n = 4\nf = 1\n")  # missing sweep_byzantine
        assert main(["sweep", str(sweep_file), "--out", str(tmp_path / "x.csv")]) == 2

    def test_non_utf8_sweep_is_a_config_error(self, tmp_path, capsys):
        sweep_file = tmp_path / "sweep.txt"
        sweep_file.write_bytes(SWEEP.encode() + b"# \xff\n")
        out = tmp_path / "x.csv"
        assert main(["sweep", str(sweep_file), "--out", str(out)]) == 2
        assert "config error: cannot read sweep file:" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exits_2_before_simulating(self, tmp_path, capsys,
                                                      monkeypatch):
        sweep_file = tmp_path / "sweep.txt"
        sweep_file.write_text(SWEEP)
        blocker = tmp_path / "plain"
        blocker.write_text("a regular file")
        monkeypatch.setattr("phalanx.cli.sweep_rows",
                            lambda *a, **k: pytest.fail("simulated"))
        out = blocker / "sub" / "x.csv"
        assert main(["sweep", str(sweep_file), "--out", str(out)]) == 2
        assert "output error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (SWEEP_HEAD + "reps = x\n", "line 4: reps must be an integer"),
        (SWEEP_HEAD + "base_seed = x\n", "line 4: base_seed must be an integer"),
        (SWEEP_HEAD + "strategies = anchor, bogus\n", "unknown strategy 'bogus'"),
        (SWEEP_HEAD + "strategies = follow\n", "follow strategy needs"),
        (SWEEP_HEAD + "reps = -1\n", "reps must be >= 1"),
        (SWEEP_HEAD + "reps = 1\n# tail\nbogus = 3\n", "line 6: unknown key 'bogus'"),
        (SWEEP_HEAD + "reps = 2\nreps = 1\n", "line 5: key 'reps' repeats line 4"),
        (SWEEP_HEAD + "n = 7\n", "line 4: key 'n' repeats line 1"),
    ], ids=["reps-not-int", "base-seed-not-int", "unknown-strategy",
            "follow-without-byzantine", "negative-reps", "unknown-key-line",
            "repeated-sweep-key", "repeated-base-key"])
    def test_bad_sweep_field_is_a_config_error(self, tmp_path, capsys, text, message):
        sweep_file = tmp_path / "sweep.txt"
        sweep_file.write_text(text)
        out = tmp_path / "x.csv"
        assert main(["sweep", str(sweep_file), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_parallel_workers_match_serial(self, tmp_path):
        sweep_file = tmp_path / "sweep.txt"
        sweep_file.write_text(SWEEP)
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert main(["sweep", str(sweep_file), "--out", str(serial)]) == 0
        assert main(["sweep", str(sweep_file), "--out", str(parallel),
                     "--workers", "2"]) == 0
        assert serial.read_text() == parallel.read_text()


class TestDiffTraces:
    def _write_traces(self, tmp_path, scenario_file):
        out = tmp_path / "out"
        main(["run", str(scenario_file), "--out", str(out)])
        return out

    def test_identical_traces_exit_0(self, scenario_file, tmp_path, capsys):
        out = self._write_traces(tmp_path, scenario_file)
        code = main(["diff-traces", str(out / "trace_node0.txt"),
                     str(out / "trace_node1.txt")])
        assert code == 0
        assert "identical" in capsys.readouterr().out

    def test_divergent_traces_exit_1(self, scenario_file, tmp_path, capsys):
        out = self._write_traces(tmp_path, scenario_file)
        lines = (out / "trace_node0.txt").read_text().splitlines()
        lines[0], lines[1] = lines[1], lines[0]
        mutated = out / "mutated.txt"
        mutated.write_text("\n".join(lines) + "\n")
        code = main(["diff-traces", str(out / "trace_node0.txt"), str(mutated)])
        assert code == 1
        assert "index 0" in capsys.readouterr().out

    def test_truncated_file_exits_2(self, scenario_file, tmp_path):
        out = self._write_traces(tmp_path, scenario_file)
        broken = out / "broken.txt"
        broken.write_text("not a trace line\n")
        assert main(["diff-traces", str(out / "trace_node0.txt"), str(broken)]) == 2

    def test_missing_file_exits_2(self, scenario_file, tmp_path):
        out = self._write_traces(tmp_path, scenario_file)
        assert main(["diff-traces", str(out / "trace_node0.txt"),
                     str(out / "absent.txt")]) == 2


class TestGolden:
    def test_golden_passes(self, capsys):
        assert main(["golden"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] anchor-handoff" in out
        assert "[PASS] median-inversion" in out

    def test_golden_verbose_details(self, capsys):
        assert main(["golden", "--verbose"]) == 0
        assert "ok:" in capsys.readouterr().out
