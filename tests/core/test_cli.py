"""Tests for the ``python -m repro`` CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import COMMANDS, main

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples"
)


class TestCLI:
    @pytest.mark.parametrize(
        "command", ["table6", "figures", "hw-vs-sw", "throughput", "device"]
    )
    def test_commands_run(self, command, capsys):
        assert main([command]) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_table6_reports_matches(self, capsys):
        main(["table6"])
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        assert "3n + 5" in out

    def test_figures_report_paper_values(self, capsys):
        main(["figures"])
        out = capsys.readouterr().out
        assert "label_out=504" in out
        assert "packetdiscard=1" in out

    def test_device_shows_fit(self, capsys):
        main(["device"])
        out = capsys.readouterr().out
        assert "EP1S40" in out
        assert "yes" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_all_commands_registered(self):
        assert {command.name for command in COMMANDS if command.paper} == {
            "table6",
            "worst-case",
            "figures",
            "hw-vs-sw",
            "throughput",
            "device",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            # were: exit 0, the flags read by no one
            ["flows", "chaos_flow_alerts.json", "--mitigation", "off"],
            ["flows", "chaos_flow_alerts.json", "--batching", "on"],
            ["flows", "chaos_flow_alerts.json", "--sample-rate", "0.5"],
            ["flows", "chaos_flow_alerts.json", "--node", "x"],
            ["table6", "--export", "f"],
            ["chaos", "chaos_smoke.json", "--top", "3"],
            ["bench-report", "--seed", "3"],
        ],
    )
    def test_a_flag_the_command_does_not_read_is_refused(self, argv, capsys):
        argv = [
            os.path.join(EXAMPLES_DIR, a) if a.endswith(".json") else a
            for a in argv
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_trace_runs_the_file_it_is_given(self, capsys):
        path = os.path.join(EXAMPLES_DIR, "chaos_smoke.json")
        assert main(["trace", path]) == 0
        # the quickstart sends 121
        assert "(481 packets sent, " in capsys.readouterr().err

    def test_importing_the_cli_loads_no_fault_module(self):
        src = os.path.join(EXAMPLES_DIR, os.pardir, "src")
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith('repro.faults')))"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestChaosCLI:
    def test_list_faults_enumerates_the_taxonomy(self, capsys):
        from repro.faults.scenario import FAULT_PARAMS, FaultKind

        assert main(["chaos", "--list-faults"]) == 0
        out = capsys.readouterr().out
        for kind in FaultKind:
            assert kind.value in out
        # target arity, per-kind params and the adversarial tag all show
        assert "link (two nodes)" in out
        assert "node" in out
        assert "adversarial" in out
        for params in FAULT_PARAMS.values():
            for name in params:
                assert name in out
        assert "(no params)" in out  # ldp-hijack takes none

    def test_list_faults_needs_no_scenario_file(self, capsys):
        assert main(["chaos", "--list-faults"]) == 0
        assert capsys.readouterr().out.strip()

    def test_chaos_without_scenario_fails(self, capsys):
        assert main(["chaos"]) == 1
        assert "scenario" in capsys.readouterr().err

    def test_mitigation_flag_overrides_the_scenario(
        self, tmp_path, capsys
    ):
        # trim the example to the spoof attack alone so the CLI round
        # trip stays fast, then stand the guards down from the flag
        with open(os.path.join(EXAMPLES_DIR, "chaos_security.json")) as fh:
            raw = json.load(fh)
        raw["duration"] = 0.8
        raw["faults"] = [raw["faults"][0]]
        path = tmp_path / "spoof.json"
        path.write_text(json.dumps(raw))
        assert main(
            ["chaos", str(path), "--seed", "7", "--mitigation", "off"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["security"]["enabled"] is False
        assert report["security"]["blast_radius_total"] > 0
        assert main(
            ["chaos", str(path), "--seed", "7", "--mitigation", "on"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["security"]["enabled"] is True
        assert report["security"]["blast_radius_total"] == 0


class TestHostileScenarioCLI:
    """A traffic entry, fault param or subsystem value no run can mean
    ends ``repro chaos`` with one line and exit code 1 -- never a
    traceback from inside the event loop, never a source spinning until
    the event budget.  The scenario reader refuses every shape here
    before a run is built, so they run in-process (``_read_refused``).
    Only the shapes whose regression would spin rather than fail -- a
    traffic entry a source would loop on, a run with no finite horizon
    -- run in a subprocess with a 5 s limit (``_refused``), so a
    regression fails instead of hanging."""

    @pytest.mark.parametrize(
        "key,value",
        [
            ("packet_size", -30),   # was: ValueError: negative count
            ("rate_bps", "inf"),    # was: a zero re-arm interval, >60 s
            ("rate_bps", "nan"),    # was: negative delay nan
            ("rate_bps", 0),
            ("start", -1),
            ("stop", "nan"),
            ("rate_bps", "fast"),
        ],
    )
    def test_one_line_non_zero_inside_five_seconds(
        self, key, value, tmp_path
    ):
        raw = self._smoke()
        raw["traffic"][0][key] = value
        line = self._refused(raw, tmp_path)
        assert line.startswith("error: bad scenario: traffic entry {")
        assert repr(key) in line

    @pytest.mark.parametrize(
        "fault,message",
        [
            # was: ValueError from float() at inject time
            ({"kind": "link-loss", "target": ["ler-a", "lsr-1"],
              "rate": "high"}, "link-loss: bad rate 'high'"),
            # was: ValueError from set_loss, mid-run
            ({"kind": "link-loss", "target": ["ler-a", "lsr-1"], "rate": 7},
             "link-loss: bad rate 7"),
            # was: ValueError from int() while expanding the flap
            ({"kind": "link-flap", "target": ["lsr-1", "lsr-3"],
              "flaps": "3x"}, "link-flap: bad flaps '3x'"),
            # was: ValueError from float() at inject time
            ({"kind": "node-restart", "target": "lsr-3", "hold_time": "x"},
             "node-restart: bad hold_time 'x'"),
            # was: KeyError: 0 from the info base's key widths
            ({"kind": "ib-bitflip", "target": "lsr-3", "level": 0},
             "ib-bitflip: bad level 0"),
        ],
    )
    def test_a_fault_param_no_run_can_mean(
        self, fault, message, tmp_path, capsys
    ):
        raw = self._smoke()
        raw["faults"].append({"at": 0.3, "heal_at": 0.4, **fault})
        line = self._read_refused(raw, tmp_path, capsys)
        assert line.startswith(f"error: bad scenario: {message}: ")

    @pytest.mark.parametrize(
        "times,message",
        [
            # were: a ValueError / TypeError traceback from float()
            ({"at": "soon"}, "link-down: bad at 'soon'"),
            ({"at": [1]}, "link-down: bad at [1]"),
            # was: a ValueError traceback from the scheduler
            ({"at": "nan"}, "link-down: bad at nan"),
            # were: exit 0 with a fault that never fired / never healed
            # (omitting heal_at is how a fault never heals)
            ({"at": "inf"}, "link-down: bad at inf"),
            ({"at": 0.3, "heal_at": "inf"}, "link-down: bad heal_at inf"),
        ],
    )
    def test_a_fault_time_no_run_can_mean(
        self, times, message, tmp_path, capsys
    ):
        raw = self._smoke()
        raw["faults"].append(
            {"kind": "link-down", "target": ["lsr-1", "lsr-2"], **times}
        )
        line = self._read_refused(raw, tmp_path, capsys)
        assert line.startswith(f"error: bad scenario: {message}: ")

    @pytest.mark.parametrize(
        "topology,message",
        [
            # was: TypeError: 'int' object is not iterable
            (5, "bad scenario: 'topology' must be an object, got 5"),
            # were: TypeError / ValueError tracebacks from building it
            ({"kind": "paper_figure1", "bogus": 3},
             "topology {'kind': 'paper_figure1', 'bogus': 3}: "),
            ({"kind": "ring", "n": "x"}, "topology {'kind': 'ring', 'n': 'x'}: "),
            ({"bandwidth_bps": -5},
             "topology {'bandwidth_bps': -5}: bad bandwidth_bps -5: "),
            # was: TypeError: unhashable type: 'list'
            ({"kind": ["line"]}, "topology {'kind': ['line']}: bad kind ['line']: "),
            # was: exit 0, availability 0.0 over links of 1 bps
            ({"kind": "paper_figure1", "bandwidth_bps": True},
             "topology {'kind': 'paper_figure1', 'bandwidth_bps': True}: "
             "bad bandwidth_bps True: "),
            # were: a one-node and an empty line, then "edge 'ler-a' is
            # not in the topology"
            ({"kind": "line", "n": True},
             "topology {'kind': 'line', 'n': True}: bad n True: "),
            ({"kind": "line", "n": -1},
             "topology {'kind': 'line', 'n': -1}: bad n -1: "),
        ],
    )
    def test_a_topology_no_run_can_mean(
        self, topology, message, tmp_path, capsys
    ):
        raw = self._smoke()
        raw["topology"] = topology
        assert self._read_refused(raw, tmp_path, capsys).startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "key,value,message",
        [
            # were: a traceback from parsing the scenario
            ("random_faults", 5, "'random_faults' must be an object, got 5"),
            ("traffic", 5, "'traffic' must be a list, got 5"),
            ("faults", 5, "'faults' must be a list, got 5"),
            ("faults", [5], "fault entry 5 must be an object"),
            ("edges", 5, "'edges' must be a list, got 5"),
            ("protection", 5, "'protection' must be a list, got 5"),
            # was: exit 0 with hardware nodes (bool("false") is True)
            ("hardware", "false", "bad hardware 'false': must be true or false"),
        ],
    )
    def test_a_scenario_shape_no_run_can_mean(
        self, key, value, message, tmp_path, capsys
    ):
        raw = self._smoke()
        raw[key] = value
        assert self._read_refused(raw, tmp_path, capsys) == f"error: bad scenario: {message}"

    @pytest.mark.parametrize(
        "key,value,message",
        [
            # were: a traceback from int() / float() / iteration, the
            # last a ZeroDivisionError from the outage draw
            ("count", "x", "bad count 'x': "),
            ("window", 5, "bad window 5: "),
            ("kinds", 5, "bad kinds 5: "),
            ("mean_outage", "inf", "bad mean_outage 'inf': "),
            # were: exit 0 with no random fault drawn
            ("count", -3, "bad count -3: "),
            ("mean_outage", -1, "bad mean_outage -1: "),
        ],
    )
    def test_a_random_schedule_no_run_can_mean(
        self, key, value, message, tmp_path, capsys
    ):
        raw = self._smoke()
        raw["random_faults"][key] = value
        line = self._read_refused(raw, tmp_path, capsys)
        assert line.startswith(f"error: bad scenario: random_faults: {message}")

    def test_an_unknown_random_kind(self, tmp_path, capsys):
        # was: ValueError: 'bogus' is not a valid FaultKind
        raw = self._smoke()
        raw["random_faults"]["kinds"] = ["bogus"]
        line = self._read_refused(raw, tmp_path, capsys)
        assert line == "error: bad scenario: unknown fault kind 'bogus'"

    @pytest.mark.parametrize(
        "key,config,message",
        [
            # were: a traceback from the subsystem's constructor or its
            # first tick
            ("audit", {"period": 0}, "audit: bad period 0"),
            ("audit", {"period": "abc"}, "audit: bad period 'abc'"),
            ("audit", {"period": float("nan")}, "audit: bad period nan"),
            ("audit", {"start": "x"}, "audit: bad start 'x'"),
            ("oam", {"period": 0}, "oam: bad period 0"),
            ("oam", {"slo_rtt_s": "fast"}, "oam: bad slo_rtt_s 'fast'"),
            ("flows", {"capacity": 0}, "flows: bad capacity 0"),
            ("flows", {"matrix_period": "x"}, "flows: bad matrix_period 'x'"),
            ("flows", {"idle_timeout": -1}, "flows: bad idle_timeout -1"),
            ("topo", {"snapshot_every": 0}, "topo: bad snapshot_every 0"),
            ("topo", {"snapshot_every": "x"}, "topo: bad snapshot_every 'x'"),
            ("alerts", {"rules": "x"}, "alerts: bad rules 'x'"),
            ("overload", {"queue_capacity": "x"},
             "overload: bad queue_capacity 'x'"),
            # was: exit 0 with no probe ever concluded, an empty section
            ("oam", {"timeout": 100}, "oam: bad timeout 100.0"),
            # were: ValueError: negative delay nan from the scheduler
            ("overload", {"keepalive_interval": "nan"},
             "overload: bad keepalive_interval nan"),
            ("overload", {"service_time_s": "nan"},
             "overload: bad service_time_s nan"),
            # was: ValueError: cannot schedule at -5.0
            ("overload", {"shed_start": -5}, "overload: bad shed_start -5.0"),
            # were: accepted, exit 0 (the last with availability 0.0)
            ("overload", {"hold_time": "nan"}, "overload: bad hold_time nan"),
            ("overload", {"hold_time": "inf"}, "overload: bad hold_time inf"),
            ("overload", {"shed_period": "nan"},
             "overload: bad shed_period nan"),
            ("overload", {"service_time_s": "inf"},
             "overload: bad service_time_s inf"),
        ],
    )
    def test_a_subsystem_value_no_run_can_mean(
        self, key, config, message, tmp_path, capsys
    ):
        raw = self._smoke()
        raw[key] = config
        if key == "alerts":
            raw["flows"] = {}
        if key == "overload":
            raw["control"] = "ldp-messages"
        line = self._read_refused(raw, tmp_path, capsys)
        assert line.startswith(f"error: {message}: ")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_a_horizon_no_run_reaches_inside_five_seconds(
        self, value, tmp_path
    ):
        # were: spinning to the event budget, well past 20 s
        raw = self._smoke()
        raw["duration"] = value
        line = self._refused(raw, tmp_path)
        assert line.startswith(f"error: bad scenario: bad duration {value}: ")

    @pytest.mark.parametrize(
        "key,value,message",
        [
            # was: a ValueError traceback from float()
            ("duration", "soon", "bad duration 'soon'"),
            # were: ValueError: negative delay ... from the scheduler
            ("detection_delay_s", "nan", "bad detection_delay_s nan"),
            ("detection_delay_s", -1, "bad detection_delay_s -1.0"),
        ],
    )
    def test_a_run_time_no_run_can_mean(
        self, key, value, message, tmp_path, capsys
    ):
        raw = self._smoke()
        raw[key] = value
        line = self._read_refused(raw, tmp_path, capsys)
        assert line.startswith(f"error: bad scenario: {message}: ")

    @pytest.mark.parametrize("period", ["0", "-1", "nan"])
    def test_an_audit_period_no_run_can_mean(self, period, tmp_path, capsys):
        # was: a traceback from the auditor
        line = self._read_refused(
            self._smoke(), tmp_path, capsys, "--audit", period
        )
        assert line.startswith(f"error: audit: bad period {float(period)}: ")

    # The shapes below start from a committed example other than the
    # smoke scenario, or from a document that is not one.

    @pytest.mark.parametrize(
        "target,message",
        [
            # were: exit 0, reported "skipped" with a false detail
            (["ler-a", "ler-b"], "link-down targets ler-a-ler-b"),
            (["ler-a", "lsr-3"], "link-loss targets ler-a-lsr-3"),
        ],
    )
    def test_a_link_fault_on_two_nodes_that_share_no_link(
        self, target, message, tmp_path, capsys
    ):
        raw = self._example("chaos_smoke")
        kind = message.split()[0]
        raw["faults"] = [
            {"at": 0.1, "heal_at": 0.2, "kind": kind, "target": target}
        ]
        line = self._read_refused(raw, tmp_path, capsys)
        assert line == f"error: {message}, which is not a link"

    @pytest.mark.parametrize(
        "example,path,value,message",
        [
            # were: a KeyError traceback from the network or the source
            ("chaos_smoke", ("traffic", 0, "ingress"), "zz",
             "traffic ingress 'zz' is not in the topology"),
            ("chaos_smoke", ("traffic", 0, "egress"), "zz",
             "traffic egress 'zz' is not in the topology"),
            # were: a SignalingError traceback from CSPF
            ("chaos_frr", ("protection", 0, "ingress"), "zz",
             "protection ingress 'zz' is not in the topology"),
            ("chaos_frr", ("protection", 0, "egress"), "zz",
             "protection egress 'zz' is not in the topology"),
            # was: ValueError: lsr-1 is a core LSR; hosts attach to LERs
            ("chaos_smoke", ("traffic", 0, "egress"), "lsr-1",
             "traffic egress 'lsr-1' is not an edge: hosts attach to LERs"),
        ],
    )
    def test_a_node_name_the_topology_cannot_mean(
        self, example, path, value, message, tmp_path, capsys
    ):
        raw = self._example(example, path, value)
        assert self._read_refused(raw, tmp_path, capsys) == f"error: {message}"

    @pytest.mark.parametrize(
        "key,value",
        [
            # were: a ValueError traceback from building the network / source
            ("prefix", "10.2.0.0/40"),
            ("src", "10.1.x.5"),
            ("dst", "10.2.0.x"),
            # were: exit 0, each read as something else
            ("cos", 9), ("cos", -1), ("cos", 2.5),
            ("packet_size", 2.5),
            ("rate_bps", True),
            ("bogus", 1),
        ],
    )
    def test_a_traffic_value_no_run_can_mean(
        self, key, value, tmp_path, capsys
    ):
        raw = self._example("chaos_smoke", ("traffic", 0, key), value)
        line = self._read_refused(raw, tmp_path, capsys)
        assert line.startswith("error: bad scenario: traffic entry {")
        if key == "bogus":
            assert line.endswith(": unknown key(s) bogus (accepted: cos, "
                                 "dst, egress, ingress, packet_size, prefix, "
                                 "rate_bps, src, start, stop)")
        else:
            assert f"}}: bad {key} {value!r}: " in line

    @pytest.mark.parametrize(
        "path,value,message",
        [
            # were: a traceback (AttributeError, ValueError, or a
            # SignalingError from RSVP-TE)
            (("protection",), [5], "protection entry 5: must be an object"),
            (("protection", 0, "bandwidth_bps"), "x", "bad bandwidth_bps 'x'"),
            # were: exit 0, the value dropped or read as given
            (("protection", 0, "bandwidth_bps"), -1, "bad bandwidth_bps -1"),
            (("protection", 0, "bandwidth_bps"), "nan",
             "bad bandwidth_bps 'nan'"),
            (("protection", 0, "bogus"), 1, "unknown key(s) bogus"),
        ],
    )
    def test_a_protection_entry_no_run_can_mean(
        self, path, value, message, tmp_path, capsys
    ):
        raw = self._example("chaos_frr", path, value)
        line = self._read_refused(raw, tmp_path, capsys)
        assert line.startswith("error: bad scenario: protection entry ")
        assert message in line

    @pytest.mark.parametrize(
        "path,value,message",
        [
            # were: SignalingError: explicit route needs >= 2 nodes
            (("egress",), "ler-a",
             "protection 'p1': bad egress 'ler-a': it is the ingress"),
            # was: the same refusal, from the run rather than the reader
            (("prefix",), "10.9.0.0/16",
             "protection 'p1': bad prefix '10.9.0.0/16': no flow has it"),
        ],
    )
    def test_a_protected_lsp_its_flows_cannot_mean(
        self, path, value, message, tmp_path, capsys
    ):
        raw = self._example("chaos_frr", ("protection", 0, *path), value)
        assert self._read_refused(raw, tmp_path, capsys) == (
            f"error: bad scenario: {message}"
        )

    def test_two_protected_lsps_with_one_name(self, tmp_path, capsys):
        # was: SignalingError: 'p1' is already protected
        raw = self._example("chaos_frr")
        raw["protection"] *= 2
        assert self._read_refused(raw, tmp_path, capsys) == (
            "error: bad scenario: protection names must be unique: "
            "['p1', 'p1']"
        )

    @pytest.mark.parametrize("document", [[1, 2], "x"])
    def test_a_document_that_is_not_an_object(
        self, document, tmp_path, capsys
    ):
        # was: AttributeError: ... object has no attribute 'get'
        assert self._read_refused(document, tmp_path, capsys) == (
            "error: bad scenario: the document: must be an object"
        )

    @pytest.mark.parametrize(
        "example,key,config,message",
        [
            # were: a ValueError traceback from the scheduler
            ("chaos_controller", "controller", {"keepalive_interval": "nan"},
             "controller: bad keepalive_interval nan: must be a number"),
            ("chaos_controller", "controller", {"rpc_delay": "nan"},
             "controller: bad rpc_delay nan: must be a number"),
            # were: exit 0 (bool("false") is True; NaN compares false)
            ("chaos_controller", "controller", {"hold_time": "nan"},
             "controller: bad hold_time nan: must be a number"),
            ("chaos_controller", "controller", {"enabled": "false"},
             "controller: bad enabled 'false': must be true or false"),
            ("chaos_security", "security", {"enabled": "false"},
             "security: bad enabled 'false': must be true or false"),
            ("chaos_signaling_storm", "overload", {"enabled": "false"},
             "overload: bad enabled 'false': must be true or false"),
            ("chaos_smoke", "audit", {"repair": "false"},
             "audit: bad repair 'false': must be true or false"),
            # were: a ValueError traceback from the scheduler / a counter
            ("chaos_controller", "controller", {"adopt_at": -1},
             "controller: bad adopt_at -1: must be >= 0"),
            ("chaos_security", "security", {"exception_burst": -5},
             "security: bad exception_burst -5: must be >= 0"),
        ],
    )
    def test_a_switch_or_timer_no_run_can_mean(
        self, example, key, config, message, tmp_path, capsys
    ):
        raw = self._example(example, (key,), config)
        assert self._read_refused(raw, tmp_path, capsys) == f"error: {message}"

    @pytest.mark.parametrize(
        "path,value,message",
        [
            # were: exit 0, the key ignored
            (("bogus",), 1, "bad scenario: unknown key(s) bogus (accepted: "),
            (("random_faults", "bogus"), 1,
             "bad scenario: random_faults: unknown key(s) bogus (accepted: "),
            *[((key,), {"peroid": 0.1},
               f"{key}: unknown key(s) peroid (accepted: ")
              for key in ("audit", "oam", "flows", "topo")],
        ],
    )
    def test_an_unknown_key(self, path, value, message, tmp_path, capsys):
        raw = self._example("chaos_smoke", path, value)
        line = self._read_refused(raw, tmp_path, capsys)
        assert line.startswith(f"error: {message}")

    @staticmethod
    def _example(name, path=(), value=None):
        """The committed example ``name``, with ``value`` set at
        ``path`` (a tuple of keys) when one is given."""
        with open(os.path.join(EXAMPLES_DIR, f"{name}.json")) as fh:
            raw = json.load(fh)
        if path:
            *parents, last = path
            node = raw
            for key in parents:
                node = node[key]
            node[last] = value
        return raw

    @staticmethod
    def _read_refused(raw, tmp_path, capsys, *flags):
        """``repro chaos`` on ``raw`` (plus ``flags``) in this process;
        return its one stderr line after checking exit code 1 and an
        empty stdout."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["chaos", str(path), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        return line

    @staticmethod
    def _smoke():
        with open(os.path.join(EXAMPLES_DIR, "chaos_smoke.json")) as fh:
            return json.load(fh)

    @staticmethod
    def _refused(raw, tmp_path, *flags):
        """Run ``repro chaos`` on ``raw`` (plus ``flags``) in a subprocess
        (5 s limit); return its one stderr line after checking the exit
        and stdout."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        src = os.path.join(EXAMPLES_DIR, os.pardir, "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "chaos", str(path), *flags],
            capture_output=True, text=True, timeout=5,
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        )
        assert result.returncode != 0
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        return lines[0]


class TestHostileOptionsCLI:
    """An option value no run can mean is one ``error:`` line and exit
    code 2, refused before the scenario is built -- not a traceback
    from the recorder, not a negative slice bound."""

    SMOKE = os.path.join(EXAMPLES_DIR, "chaos_smoke.json")
    ALERTS = os.path.join(EXAMPLES_DIR, "chaos_flow_alerts.json")

    def _refused(self, argv, capsys, monkeypatch):
        import repro.faults

        def no_run(*args, **kwargs):
            raise AssertionError("the scenario was built")

        monkeypatch.setattr(repro.faults.Scenario, "load", no_run)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        return line

    @pytest.mark.parametrize("rate", ["2", "-0.1", "nan"])
    def test_sample_rate_outside_the_unit_interval(
        self, rate, capsys, monkeypatch
    ):
        line = self._refused(
            ["spans", self.SMOKE, "--seed", "7", "--sample-rate", rate],
            capsys, monkeypatch,
        )
        assert "--sample-rate must be in [0, 1]" in line

    @pytest.mark.parametrize("rate", ["0", "0.25", "1"])
    def test_sample_rates_in_range_still_run(self, rate, capsys):
        assert main(
            ["spans", self.SMOKE, "--seed", "7", "--sample-rate", rate]
        ) == 0
        assert f"rate {float(rate)})" in capsys.readouterr().out

    def test_negative_slowest_is_not_a_slice_bound(
        self, capsys, monkeypatch
    ):
        line = self._refused(
            ["spans", self.SMOKE, "--seed", "7", "--slowest", "-1"],
            capsys, monkeypatch,
        )
        assert "--slowest must be >= 0" in line

    def test_negative_top_is_not_a_slice_bound(self, capsys, monkeypatch):
        line = self._refused(
            ["flows", self.ALERTS, "--seed", "7", "--top", "-1"],
            capsys, monkeypatch,
        )
        assert "--top must be >= 0" in line

    def test_zero_prints_the_summary_without_the_list(self, capsys):
        assert main(["spans", self.SMOKE, "--seed", "7", "--slowest", "0"]) == 0
        out = capsys.readouterr().out
        assert "span tracing summary" in out and "slowest" not in out
        assert main(["flows", self.ALERTS, "--seed", "7", "--top", "0"]) == 0
        out = capsys.readouterr().out
        assert "flow accounting summary" in out and "talkers" not in out


class TestTopoCLI:
    """``repro topo`` — the topology-observatory query command."""

    SCENARIO = os.path.join(EXAMPLES_DIR, "chaos_smoke.json")

    def test_show_renders_the_live_view(self, capsys):
        assert main(["topo", self.SCENARIO]) == 0
        out = capsys.readouterr().out
        assert "topology @ t=" in out
        assert "nodes:" in out
        assert "links:" in out
        assert "ler-a" in out

    def test_health_emits_scored_json(self, capsys):
        assert main(["topo", self.SCENARIO, "health"]) == 0
        scores = json.loads(capsys.readouterr().out)
        assert 0.0 <= scores["overall"] <= 1.0
        for section in ("nodes", "links"):
            assert scores[section]

    def test_at_reconstruction_matches_the_live_export(
        self, tmp_path, capsys
    ):
        live = tmp_path / "live.json"
        replayed = tmp_path / "replayed.json"
        assert main(
            ["topo", self.SCENARIO, "--export", str(live)]
        ) == 0
        capsys.readouterr()
        # a time past the end of the run reconstructs the final view
        assert main(
            ["topo", self.SCENARIO, "at", "999", "--export",
             str(replayed)]
        ) == 0
        capsys.readouterr()
        assert live.read_bytes() == replayed.read_bytes()

    def test_diff_lists_leaf_changes(self, capsys):
        # straddle the 0.2-0.45 link outage: the link state, the fault
        # ledger and the rerouted next-hops all change
        assert main(["topo", self.SCENARIO, "diff", "0.1", "0.3"]) == 0
        captured = capsys.readouterr()
        assert "changes between t=0.1 and t=0.3" in captured.err
        assert "links.lsr-1|lsr-2: 'up' -> 'down'" in captured.out

    def test_export_is_byte_stable_across_runs(self, tmp_path, capsys):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        for target in (first, second):
            assert main(
                ["topo", self.SCENARIO, "--seed", "5",
                 "--export", str(target)]
            ) == 0
            capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_dot_export_is_valid_graphviz(self, tmp_path, capsys):
        dot = tmp_path / "topo.dot"
        assert main(
            ["topo", self.SCENARIO, "--dot", str(dot)]
        ) == 0
        text = dot.read_text()
        assert text.startswith("graph topology {")
        assert text.rstrip().endswith("}")
        assert "ler-a" in text

    def test_at_requires_exactly_one_time(self, capsys):
        assert main(["topo", self.SCENARIO, "at"]) == 1
        assert "exactly one time" in capsys.readouterr().err


class TestBenchReportCLI:
    """``repro bench-report`` — including the malformed-artifact
    accounting (silent skips became counted warnings)."""

    @staticmethod
    def _write(directory, name, payload):
        path = directory / f"BENCH_{name}.json"
        path.write_text(payload)
        return path

    def test_clean_artifacts_render_without_a_warning_suffix(
        self, tmp_path, capsys
    ):
        self._write(tmp_path, "fwd", json.dumps({
            "name": "fwd", "metric": "throughput", "value": 1.5,
            "units": "Mpps", "seed": 0,
        }))
        assert main(["bench-report", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert f"(1 records from {tmp_path})" in captured.out
        assert "unreadable" not in captured.out
        assert captured.err == ""

    def test_unreadable_artifact_warns_counts_and_fails(
        self, tmp_path, capsys
    ):
        self._write(tmp_path, "ok", json.dumps({
            "name": "ok", "metric": "m", "value": 1,
        }))
        self._write(tmp_path, "broken", "{not json")
        assert main(["bench-report", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "cannot read" in captured.err
        assert "1 unreadable, 0 schema-less" in captured.out
        assert "1 unreadable and 0 schema-less" in captured.err

    def test_non_object_artifact_is_counted_not_silently_skipped(
        self, tmp_path, capsys
    ):
        self._write(tmp_path, "list", json.dumps([1, 2, 3]))
        self._write(tmp_path, "ok", json.dumps({
            "name": "ok", "metric": "m", "value": 1,
        }))
        assert main(["bench-report", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "not a benchmark record" in captured.err
        assert "0 unreadable, 1 schema-less" in captured.out
        # the good record still renders
        assert "ok" in captured.out

    def test_missing_schema_keys_render_placeholders_and_warn(
        self, tmp_path, capsys
    ):
        self._write(tmp_path, "partial", json.dumps({"value": 2}))
        assert main(["bench-report", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "missing schema keys name, metric" in captured.err
        assert "0 unreadable, 1 schema-less" in captured.out
        # the record renders with its filename as the fallback name
        assert "BENCH_partial.json" in captured.out

    def test_empty_directory_still_errors(self, tmp_path, capsys):
        assert main(["bench-report", str(tmp_path)]) == 1
        assert "no BENCH_*.json" in capsys.readouterr().err
