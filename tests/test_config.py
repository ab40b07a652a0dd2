import math
import re
from dataclasses import fields, replace

import pytest

from wsnqos import config
from wsnqos.config import (
    _SCALAR_KEYS,
    ConfigError,
    ScenarioConfig,
    dumps_config,
    load_config,
    parse_config,
)


class TestDefaults:
    def test_empty_text_yields_reference_defaults(self):
        cfg = parse_config("")
        assert cfg == ScenarioConfig()
        assert cfg.grid_width == 1000.0 and cfg.grid_height == 1000.0
        assert cfg.e_elec_nj == 50.0
        assert cfg.eps_fs_pj == 10.0
        assert cfg.eps_amp_pj == 0.0013
        assert cfg.packet_bits == 100
        assert cfg.initial_energy == 2.0
        assert (cfg.alpha, cfg.beta, cfg.gamma) == (0.6, 0.3, 0.1)

    def test_sink_defaults_to_grid_center(self):
        cfg = parse_config("grid.width = 400\ngrid.height = 200\n")
        assert (cfg.sink_x, cfg.sink_y) == (200.0, 100.0)

    def test_radio_range_defaults_to_crossover_distance(self):
        cfg = ScenarioConfig()
        assert cfg.radio_range == pytest.approx(math.sqrt(10.0 / 0.0013))

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("\n# a comment\nseed = 9  # trailing\n\n")
        assert cfg.seed == 9


class TestParsing:
    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("alpha = -1\n")
        assert "alpha" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("alhpa = 0.5\n")
        assert "alhpa" in str(err.value)

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("just words\n")

    def test_non_numeric_value_names_the_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("duration = fast\n")
        assert "duration" in str(err.value)

    def test_positions(self):
        cfg = parse_config("node_count = 3\nposition.1 = 10, 20\nposition.2 = 30,40\n")
        assert cfg.positions == {1: (10.0, 20.0), 2: (30.0, 40.0)}

    def test_position_for_sink_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("position.0 = 1,2\n")

    def test_position_out_of_grid_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("node_count = 2\nposition.1 = 2000,50\n")

    def test_position_id_out_of_range(self):
        with pytest.raises(ConfigError):
            parse_config("node_count = 3\nposition.7 = 10,10\n")

    def test_link_loss_overrides(self):
        cfg = parse_config("node_count = 3\nloss = 0.1\nloss.1.2 = 0.5\n")
        assert cfg.loss_for(1, 2) == 0.5
        assert cfg.loss_for(2, 1) == 0.1

    def test_loss_out_of_range(self):
        with pytest.raises(ConfigError):
            parse_config("loss = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config("node_count = 3\nloss.1.2 = -0.1\n")

    def test_sources(self):
        assert parse_config("sources = all\n").sources is None
        cfg = parse_config("node_count = 5\nsources = 2, 4\n")
        assert cfg.sources == (2, 4)
        assert cfg.source_ids() == [2, 4]
        with pytest.raises(ConfigError):
            parse_config("node_count = 3\nsources = 9\n")

    def test_booleans(self):
        assert parse_config("predictive_drop = FALSE\n").predictive_drop is False
        with pytest.raises(ConfigError):
            parse_config("predictive_drop = yes\n")

    def test_node_count_minimum(self):
        with pytest.raises(ConfigError):
            parse_config("node_count = 1\n")


class TestRoundTrip:
    def test_default_config_round_trips(self):
        cfg = ScenarioConfig()
        assert parse_config(dumps_config(cfg)) == cfg

    def test_customized_config_round_trips(self):
        cfg = ScenarioConfig(
            node_count=5,
            positions={1: (10.0, 20.0), 3: (333.25, 7.5)},
            link_loss={(1, 2): 0.25, (4, 0): 0.125},
            sources=(1, 3),
            loss=0.05,
            predictive_drop=False,
            seed=123456789,
            duration=42.5,
        )
        text = dumps_config(cfg)
        assert parse_config(text) == cfg
        # serializing again is a fixed point
        assert dumps_config(parse_config(text)) == text

    def test_key_table_covers_every_scalar_field(self):
        mapped = {attr for attr, _ in _SCALAR_KEYS.values()}
        declared = {f.name for f in fields(ScenarioConfig)} - {"positions", "link_loss"}
        assert mapped == declared

    def test_key_reference_names_every_scalar_key(self):
        missing = [
            key
            for key in _SCALAR_KEYS
            if not re.search(rf"(?<![\w.]){re.escape(key)}(?![\w.])", config.__doc__)
        ]
        assert missing == []

    def test_key_reference_lists_exactly_the_parsed_keys(self):
        # the left column of each entry, defaults in parentheses and a
        # `= value` form dropped; continuation lines leave it blank
        block = config.__doc__.split("Key reference")[1].split("\n\n", 2)[1]
        documented = set()
        for line in block.splitlines():
            column = re.split(r"\s{2,}", line.strip())[0] if line[4] != " " else ""
            column = re.sub(r"\([^)]*\)", "", column).split("=")[0]
            documented.update(key.strip() for key in column.split(",") if key.strip())
        assert documented == set(_SCALAR_KEYS) | {"position.<id>", "loss.<from>.<to>"}


class TestLoadConfig:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("seed = 42\nduration = 7\n")
        cfg = load_config(str(path))
        assert cfg.seed == 42 and cfg.duration == 7.0
        assert load_config(str(path)) == cfg

    def test_overrides_resolve_before_the_defaults(self, tmp_path):
        # checked on the config only: a run of 1e8 s would not finish. One
        # source at 0.5 packets/s keeps it under the expected-packet cap.
        path = tmp_path / "scenario.txt"
        path.write_text("duration = 100\nsources = 1\nrate.rt = 0.25\nrate.nrt = 0.25\n")
        cfg = load_config(str(path), duration=1e8, seed=7)
        assert (cfg.duration, cfg.seed) == (1e8, 7)
        assert cfg.timeline_bucket == 1e6
        assert cfg.timeline_bucket_count() == 100
        # a bucket the file sets is kept
        path.write_text("duration = 100\ntimeline_bucket = 5\n")
        assert load_config(str(path), duration=10.0).timeline_bucket_count() == 2

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(str(tmp_path / "nope.txt"))


class TestHelpers:
    def test_radio_params_in_si_units(self):
        radio = ScenarioConfig().radio_params()
        assert radio.e_elec == pytest.approx(50e-9)
        assert radio.eps_fs == pytest.approx(10e-12)
        assert radio.eps_amp == pytest.approx(0.0013e-12)

    def test_replace_revalidates(self):
        cfg = ScenarioConfig()
        with pytest.raises(ConfigError):
            replace(cfg, alpha=-2.0)

    def test_expected_packets_are_capped(self):
        # checked on the config only: a run at the cap draws 10^8 arrivals.
        # 10 sources for 1000 s at 10^4 packets/s each reach it exactly.
        cap = config.MAX_EXPECTED_PACKETS
        base = ScenarioConfig(node_count=11, duration=1000.0, rate_rt=0.0,
                              rate_nrt=1e4)
        assert (base.rate_rt + base.rate_nrt) * base.duration * 10 == cap
        over = math.nextafter(1e4, math.inf)
        with pytest.raises(ConfigError, match="^rate.nrt: "):
            replace(base, rate_nrt=over)
        # the error names the larger rate
        with pytest.raises(ConfigError, match="^rate.rt: "):
            replace(base, rate_rt=over, rate_nrt=1.0)
        # a listed source counts once
        assert replace(base, node_count=20, sources=(1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
        with pytest.raises(ConfigError, match="^rate.nrt: "):
            replace(base, node_count=20, sources=tuple(range(1, 12)))
        # the default traffic, 598 streams at 1 packet/s, for 10^8 s
        with pytest.raises(ConfigError, match="^rate.rt: "):
            ScenarioConfig(duration=1e8)

    def test_node_count_is_capped(self):
        # checked on the config only: set-up at the cap holds about 1 GB.
        # With no traffic, and on a grid sparse enough for the pair bound,
        # no other bound applies to node_count.
        cap = config.MAX_NODE_COUNT
        text = (
            "grid.width = 100000\ngrid.height = 100000\n"
            "rate.rt = 0\nrate.nrt = 0\nnode_count = "
        )
        assert parse_config(text + str(cap)).node_count == cap
        with pytest.raises(ConfigError, match="^node_count: must be <= 300000"):
            parse_config(text + str(cap + 1))
        with pytest.raises(ConfigError, match="^node_count: "):
            parse_config(text + "100000000")

    @pytest.mark.parametrize(
        "grid, under, over",
        [
            # every pair in range: C(14142, 2) = 99,991,011 and
            # C(14143, 2) = 100,005,153
            ("grid.width = 10\ngrid.height = 10", 14142, 14143),
            # a grid area that underflows to 0 puts every pair in range
            ("grid.width = 1e-200\ngrid.height = 1e-200", 14142, 14143),
            # the default grid, about 2.4% of it in reach of a node:
            # about 9.8e7 pairs at 90,000 nodes and 1.09e8 at 95,000
            ("", 90_000, 95_000),
        ],
        ids=["all_in_range", "area_underflows", "default_density"],
    )
    def test_pairs_in_range_are_capped(self, grid, under, over):
        # checked on the config only: each pair in range holds at most one
        # allowed-neighbor entry at set-up
        text = f"{grid}\nrate.rt = 0\nrate.nrt = 0\nnode_count = "
        assert parse_config(text + str(under)).node_count == under
        with pytest.raises(ConfigError, match="^node_count: .* expected pairs in range"):
            parse_config(text + str(over))

    @pytest.mark.parametrize("k, accepted", [(14142, True), (14143, False)])
    def test_pinned_pairs_are_counted_from_their_cells(self, k, accepted):
        # checked on the config only. k sensors pinned within 2 m of each
        # other, far from the sink, hold all C(k, 2) of their pairs in range:
        # 99,991,011 at 14,142 and 100,005,153 at 14,143. Under uniform
        # placement the bound would count about 240 of them.
        text = "grid.width = 100000\ngrid.height = 100000\nrate.rt = 0\nrate.nrt = 0\n"
        text += f"node_count = {k + 1}\n" + "".join(
            f"position.{1 + i} = {10 + i % 120 / 100},{10 + i // 120 / 100}\n"
            for i in range(k)
        )
        if accepted:
            assert len(parse_config(text).positions) == k
        else:
            with pytest.raises(ConfigError, match="^node_count: .* expected pairs in range"):
                parse_config(text)

    def test_timeline_bucket_count_is_capped(self):
        # checked on the config only: a run this fine would write a million
        # timeline rows per seed
        cap = config.MAX_TIMELINE_BUCKETS
        at_cap = ScenarioConfig(duration=1000.0, timeline_bucket=1000.0 / cap)
        assert at_cap.timeline_bucket_count() == cap
        under = ScenarioConfig(duration=1000.0, timeline_bucket=1000.0 / (cap - 1))
        assert under.timeline_bucket_count() == cap - 1
        with pytest.raises(ConfigError, match="timeline_bucket"):
            ScenarioConfig(duration=math.nextafter(1000.0, math.inf),
                           timeline_bucket=1000.0 / cap)
        with pytest.raises(ConfigError, match="timeline_bucket"):
            replace(at_cap, duration=2000.0)
