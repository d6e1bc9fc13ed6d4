from pathlib import Path

import pytest

from wotgw import config
from wotgw.config import (
    ConfigError,
    DeviceConfig,
    GatewayConfig,
    config_from_dict,
    format_hostport,
    load_config,
    parse_hostport,
)
from wotgw.gateway import Gateway


class TestParseHostport:
    def test_ipv4(self):
        assert parse_hostport("127.0.0.1:8080") == ("127.0.0.1", 8080)

    def test_ipv6_bracketed(self):
        assert parse_hostport("[::1]:8080") == ("::1", 8080)

    def test_hostname_family_unknown(self):
        assert parse_hostport("sensor.local:80") == ("sensor.local", 80)

    def test_whitespace_tolerated(self):
        assert parse_hostport("  10.0.0.1:99 ") == ("10.0.0.1", 99)

    @pytest.mark.parametrize(
        "bad",
        ["::1:8080... nope", "[::1]8080", "[::1" , "8080", ":8080", "host:port", "h:70000"],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_hostport(bad)

    def test_bracketed_v6_without_port_rejected(self):
        with pytest.raises(ConfigError):
            parse_hostport("[::1]")


class TestFormatHostport:
    def test_v4(self):
        assert format_hostport("127.0.0.1", 8080) == "127.0.0.1:8080"

    def test_v6_gets_brackets(self):
        assert format_hostport("::1", 8080) == "[::1]:8080"

    def test_roundtrip(self):
        for host, port in [("127.0.0.1", 1), ("::1", 65535), ("fd00::7", 80)]:
            h, p = parse_hostport(format_hostport(host, port))
            assert (h, p) == (host, port)


class TestDefaults:
    def test_documented_defaults(self):
        cfg = GatewayConfig()
        assert cfg.listen_v4 == ("127.0.0.1", 8080)
        assert cfg.listen_v6 == ("::1", 8080)
        assert cfg.failure_threshold == 3
        assert cfg.probe_interval_seconds == 10.0
        assert cfg.request_timeout_seconds == 2.0
        assert cfg.relay_enabled is True
        assert cfg.cache_enabled is True
        assert cfg.cache_max_entries == 1024
        assert cfg.cache_max_bytes == 8 * 1024 * 1024
        assert cfg.cache_default_ttl_seconds == 5.0
        assert cfg.dos_rate_limit == 100
        assert cfg.dos_window_seconds == 10.0
        assert cfg.dos_repeat_limit == 50
        assert cfg.dos_block_seconds == 60.0
        assert cfg.dos_idle_purge_seconds == 300.0
        assert cfg.socks_listen_v4 == ("127.0.0.1", 1080)
        assert cfg.socks_listen_v6 == ("::1", 1080)
        assert cfg.socks_resolver == "system"
        assert cfg.devices == []

    def test_every_key_is_documented_in_readme(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        keys = [*config._LISTEN_KEYS, *config._SCALAR_KEYS]
        assert [key for key in keys if f"`{key}`" not in readme] == []


class TestJsonFormat:
    def test_nested_sections(self, tmp_path):
        path = tmp_path / "gw.json"
        path.write_text(
            """
            {
              "gateway": {"listen_v4": "127.0.0.1:9000", "relay_enabled": false},
              "cache": {"max_entries": 16},
              "dos": {"rate_limit": 7},
              "devices": [{"id": "d1", "endpoint": "[::1]:8001", "ttl_seconds": 2}]
            }
            """
        )
        cfg = load_config(path)
        assert cfg.listen_v4 == ("127.0.0.1", 9000)
        assert cfg.relay_enabled is False
        assert cfg.cache_max_entries == 16
        assert cfg.dos_rate_limit == 7
        assert cfg.devices == [
            DeviceConfig(device_id="d1", endpoint="[::1]:8001", ttl_seconds=2.0)
        ]

    def test_flat_dotted_keys(self):
        cfg = config_from_dict({"gateway.failure_threshold": 5, "dos.window_seconds": 2.5})
        assert cfg.failure_threshold == 5
        assert cfg.dos_window_seconds == 2.5

    def test_listener_disabled_with_none(self):
        cfg = config_from_dict({"gateway": {"listen_v6": None}})
        assert cfg.listen_v6 is None
        cfg = config_from_dict({"socks": {"listen_v4": "off"}})
        assert cfg.socks_listen_v4 is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"gateway": {"listen_v5": "127.0.0.1:1"}})
        assert "listen_v5" in str(err.value)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "gw.json"
        path.write_text('["not", "an", "object"]')
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "gw.json"
        path.write_text('{"gateway": ')
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bool_coercion_is_strict(self):
        with pytest.raises(ConfigError):
            config_from_dict({"gateway": {"cache_enabled": "yes"}})
        cfg = config_from_dict({"gateway": {"cache_enabled": "false"}})
        assert cfg.cache_enabled is False

    def test_bad_scalar_reports_key(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"cache": {"max_entries": "lots"}})
        assert "cache.max_entries" in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("cache.default_ttl_seconds", "nan"),
        ("cache.max_entries", -5),
        ("dos.window_seconds", "-inf"),
        ("gateway.request_timeout_seconds", float("inf")),
        ("dos.rate_limit", float("inf")),
        ("cache.max_bytes", "-1"),
        ("cache.max_entries", 10.9),
        ("gateway.failure_threshold", 0.5),
        ("dos.rate_limit", True),
        ("gateway.request_timeout_seconds", True),
    ], ids=["ttl-nan", "entries-negative", "window-minus-inf", "timeout-inf",
            "rate-int-inf", "bytes-negative-text", "entries-fraction", "threshold-fraction",
            "rate-bool", "timeout-bool"])
    def test_number_out_of_range_reports_key(self, key, value):
        with pytest.raises(ConfigError) as err:
            config_from_dict({key: value})
        assert key in str(err.value)


class TestLineFormat:
    def test_sections_and_devices(self, tmp_path):
        path = tmp_path / "gw.conf"
        path.write_text(
            "# gateway settings\n"
            "gateway.listen_v4 = 127.0.0.1:9001\n"
            'gateway.listen_v6 = "[::1]:9001"\n'
            "dos.rate_limit = 3\n"
            "\n"
            "device.sensor1.endpoint = 127.0.0.1:8101\n"
            "device.sensor1.ttl_seconds = 1.5\n"
            "device.sensor2.endpoint = [::1]:8102\n"
            "device.sensor2.health_path = /healthz\n"
        )
        cfg = load_config(path)
        assert cfg.listen_v4 == ("127.0.0.1", 9001)
        assert cfg.listen_v6 == ("::1", 9001)
        assert cfg.dos_rate_limit == 3
        assert len(cfg.devices) == 2
        by_id = {d.device_id: d for d in cfg.devices}
        assert by_id["sensor1"].ttl_seconds == 1.5
        assert by_id["sensor2"].health_path == "/healthz"

    def test_missing_equals_reports_line(self, tmp_path):
        path = tmp_path / "gw.conf"
        path.write_text("gateway.listen_v4 = 127.0.0.1:9001\njust words\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "line 2" in str(err.value)

    def test_device_key_shape_enforced(self, tmp_path):
        path = tmp_path / "gw.conf"
        path.write_text("device.sensor1 = 127.0.0.1:8101\n")
        with pytest.raises(ConfigError):
            load_config(path)


class TestDeviceValidation:
    def test_endpoint_required(self):
        with pytest.raises(ConfigError):
            config_from_dict({"devices": [{"id": "d1"}]})

    def test_id_required(self):
        with pytest.raises(ConfigError):
            config_from_dict({"devices": [{"endpoint": "127.0.0.1:1"}]})

    def test_malformed_endpoint_fails_at_load(self):
        with pytest.raises(ConfigError):
            config_from_dict({"devices": [{"id": "d1", "endpoint": "no-port-here"}]})

    def test_missing_mapping_file_fails_at_load(self, tmp_path):
        doc = {"devices": [{"id": "d1", "endpoint": "127.0.0.1:1", "mapping_file": "nope.map"}]}
        with pytest.raises(ConfigError) as err:
            config_from_dict(doc, base_dir=tmp_path)
        assert "mapping file not found" in str(err.value)

    def test_mapping_file_resolved_against_config_dir(self, tmp_path):
        (tmp_path / "dev.map").write_text("longKeyName L\n")
        doc = {"devices": [{"id": "d1", "endpoint": "127.0.0.1:1", "mapping_file": "dev.map"}]}
        cfg = config_from_dict(doc, base_dir=tmp_path)
        assert cfg.devices[0].mapping_file == str(tmp_path / "dev.map")

    def test_inline_mapping_carried(self):
        doc = {"devices": [{"id": "d1", "endpoint": "127.0.0.1:1", "mapping": {"aLongKey": "a"}}]}
        cfg = config_from_dict(doc)
        assert cfg.devices[0].mapping_inline == {"aLongKey": "a"}

    @pytest.mark.parametrize("field", [
        {"endpoint": 5},
        {"mapping": [1, 2]},
        {"mapping": {"a": 1}},
        {"mapping_file": 7},
        {"ttl_seconds": "soon"},
        {"ttl_seconds": -1},
        {"ttl_seconds": float("nan")},
        {"ttl_seconds": True},
    ], ids=["endpoint-number", "mapping-list", "mapping-number-code", "mapping-file-number",
            "ttl-word", "ttl-negative", "ttl-nan", "ttl-bool"])
    def test_bad_device_field_fails_at_load(self, field):
        entry = {"id": "d1", "endpoint": "127.0.0.1:1", **field}
        with pytest.raises(ConfigError):
            config_from_dict({"devices": [entry]})

    def test_devices_must_be_list(self):
        with pytest.raises(ConfigError):
            config_from_dict({"devices": {"id": "d1"}})


class TestResolverSetting:
    def test_system_accepted(self):
        assert config_from_dict({"socks": {"resolver": "system"}}).socks_resolver == "system"

    def test_static_with_path_accepted(self):
        cfg = config_from_dict({"socks": {"resolver": "static:/tmp/hosts.tbl"}})
        assert cfg.socks_resolver == "static:/tmp/hosts.tbl"

    def test_other_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"socks": {"resolver": "dns-over-https"}})

    def test_relative_table_path_resolved_against_config_dir(self, tmp_path, monkeypatch):
        conf = tmp_path / "conf"
        conf.mkdir()
        (conf / "hosts").write_text("sensor v6 ::1\n")
        (conf / "gw.json").write_text('{"socks": {"resolver": "static:hosts"}}')
        monkeypatch.chdir(tmp_path)
        cfg = load_config("conf/gw.json")
        assert Gateway(cfg).static_table == {"sensor": (("v6", "::1"),)}


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
