"""Scenario text format: parsing, validation, round-trip."""

from dataclasses import replace

import pytest

from phalanx import NodeBehavior, Scenario, ScenarioError, parse_scenario_text

GOOD = """
# comment line
n = 7
f = 2
proposers = 2
commands_per_proposer = 10
batch_size = 3
delta_o = 40
latency = 10..20
propose_interval = 25
seed = 99
strategy = timestamp
byzantine = 5:shuffle+skew:-30, 6:silent
max_sim_ms = 120000
"""


class TestParsing:
    def test_full_roundtrip(self):
        scenario = parse_scenario_text(GOOD)
        assert scenario.n == 7 and scenario.f == 2
        assert scenario.latency == (10, 20)
        assert scenario.strategy == "timestamp"
        assert scenario.byzantine[5] == NodeBehavior(shuffle=True, skew=-30)
        assert scenario.byzantine[6] == NodeBehavior(silent=True)
        # result.json's scenario block reproduces the scenario.
        fields = scenario.to_dict()
        fields["latency"] = "{}..{}".format(*fields["latency"])
        fields["byzantine"] = ", ".join(
            f"{node}:{tag}" for node, tag in fields["byzantine"].items()
        )
        text = "".join(f"{key} = {value}\n" for key, value in fields.items())
        assert parse_scenario_text(text) == scenario

    def test_latency_profiles(self):
        assert parse_scenario_text("latency = lan\n").latency == (1, 5)
        assert parse_scenario_text("latency = wan\n").latency == (40, 150)

    def test_defaults_apply(self):
        scenario = parse_scenario_text("seed = 3\n")
        assert scenario.n == 4 and scenario.f == 1
        assert scenario.strategy == "anchor"

    @pytest.mark.parametrize(
        "text",
        [
            "n = 5\nf = 1\n",                      # n != 3f+1
            "strategy = quantum\n",                # unknown strategy
            "unknown_key = 1\n",                   # unknown key
            "n = notanumber\n",                    # non-integer
            "byzantine = 9:shuffle\n",             # id out of range for n=4
            "byzantine = 1:mystery\n",             # unknown behavior
            "latency = 10\n",                      # malformed range
            "latency = 20..10\n",                  # inverted range
            "strategy = follow\n",                 # follow without byzantine
            "n 4\n",                               # missing equals
            "byzantine = 1:shuffle, 1:reverse\n",  # duplicate id
            "propose_interval = -50\n",            # negative interval
            "batch_size = 0\n",                    # empty payloads
            "batch_size = -3\n",
            "resend_ms = -1\n",                    # negative resend timer
            "max_sim_ms = -1\n",                   # negative duration
            "latency = 3-7\n",                     # only lo..hi is a range
            "auth_scheme = hmac\n",                # removed key
        ],
    )
    def test_rejects_bad_configs(self, text):
        with pytest.raises(ScenarioError):
            parse_scenario_text(text)

    def test_zero_intervals_accepted(self):
        scenario = parse_scenario_text(
            "propose_interval = 0\nresend_ms = 0\nmax_sim_ms = 0\n"
        )
        assert (scenario.propose_interval, scenario.resend_ms, scenario.max_sim_ms) == (0, 0, 0)


class TestBehaviorParsing:
    def test_combined_tags(self):
        behavior = NodeBehavior.parse("shuffle+skew:120")
        assert behavior.shuffle and behavior.skew == 120
        assert behavior.tag() == "shuffle+skew:120"

    def test_tag_roundtrip(self):
        for spec in ("shuffle", "reverse", "silent", "skew:-5", "reverse+skew:9"):
            assert NodeBehavior.parse(NodeBehavior.parse(spec).tag()).tag() == \
                NodeBehavior.parse(spec).tag()

    def test_bad_skew_rejected(self):
        with pytest.raises(ScenarioError):
            NodeBehavior.parse("skew:soon")


class TestScenarioInvariants:
    def test_seed_controls_everything(self):
        scenario = Scenario(seed=1)
        assert replace(scenario, seed=2).seed == 2

    def test_byzantine_count_within_n(self):
        with pytest.raises(ScenarioError):
            Scenario(byzantine={0: NodeBehavior(shuffle=True),
                                9: NodeBehavior(shuffle=True)})

    def test_honest_ids_excludes_byzantine(self):
        scenario = Scenario(byzantine={3: NodeBehavior(shuffle=True)})
        assert scenario.honest_ids() == [0, 1, 2]

    def test_to_dict_sorted_and_stable(self):
        scenario = Scenario(byzantine={3: NodeBehavior(shuffle=True),
                                       2: NodeBehavior(silent=True)})
        d = scenario.to_dict()
        assert list(d["byzantine"]) == ["2", "3"]
