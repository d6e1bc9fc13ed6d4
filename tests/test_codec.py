import random

import pytest

from wotgw import codec
from wotgw.codec import (
    EMPTY_MAPPING,
    KeyCollisionError,
    MappingDictionary,
    MappingError,
    canonical_bytes,
    decode_keys,
    digest_value,
    encode_keys,
    load_mapping,
    load_mapping_json,
    load_mapping_text,
    parse_json,
    payload_size_delta,
)

from _gen import leaf_values, random_doc, random_mapping

POWER_MAPPING = MappingDictionary(
    [("NoOfDevices", "ND"), ("deviceName", "DN"), ("currentWatts", "CW"), ("maxWattage", "MW")]
)

TWO_DEVICE_LONG = (
    b'[{"deviceName":"ComputerAndScreen","currentWatts":50.52,"KWh":5.835,'
    b'"maxWattage":100.56},{"deviceName":"Fridge","currentWatts":86.28,'
    b'"KWh":4.421,"maxWattage":288.92}]'
)
TWO_DEVICE_CODED = (
    b'[{"DN":"ComputerAndScreen","CW":50.52,"KWh":5.835,"MW":100.56},'
    b'{"DN":"Fridge","CW":86.28,"KWh":4.421,"MW":288.92}]'
)


class TestMappingLoaders:
    def test_four_line_document(self):
        text = "NoOfDevices ND\ndeviceName DN\ncurrentWatts CW\nmaxWattage MW\n"
        m = load_mapping(text)
        assert len(m) == 4
        assert m.to_short["NoOfDevices"] == "ND"
        assert m.to_long["MW"] == "maxWattage"

    def test_tab_separator_and_comments(self):
        text = "# power sensor keys\n\nNoOfDevices\tND\n  deviceName   DN  \n"
        m = load_mapping_text(text)
        assert m.entries == (("NoOfDevices", "ND"), ("deviceName", "DN"))

    def test_empty_document_is_identity(self):
        m = load_mapping("")
        assert len(m) == 0
        doc = {"deviceName": "Fridge"}
        assert encode_keys(doc, m) == doc
        assert decode_keys(doc, m) == doc

    def test_duplicate_long_name_reports_line(self):
        with pytest.raises(MappingError) as err:
            load_mapping_text("deviceName DN\ndeviceName D2\n")
        assert "deviceName" in str(err.value)
        assert err.value.line == 2

    def test_duplicate_short_code(self):
        with pytest.raises(MappingError):
            load_mapping_text("deviceName DN\ndisplayName DN\n")

    def test_short_code_colliding_with_long_name(self):
        with pytest.raises(MappingError) as err:
            load_mapping_text("deviceName DN\nDN x\n")
        assert "collides" in str(err.value)

    def test_malformed_line_reports_number(self):
        with pytest.raises(MappingError) as err:
            load_mapping_text("deviceName DN\nonly-one-token\n")
        assert err.value.line == 2

    def test_json_object_format(self):
        m = load_mapping('{"NoOfDevices": "ND", "deviceName": "DN"}')
        assert m.to_short == {"NoOfDevices": "ND", "deviceName": "DN"}

    def test_json_rejects_non_object(self):
        with pytest.raises(MappingError):
            load_mapping_json("[1, 2]")

    def test_json_rejects_non_string_code(self):
        with pytest.raises(MappingError):
            load_mapping_json('{"deviceName": 3}')

    def test_empty_key_rejected(self):
        with pytest.raises(MappingError):
            MappingDictionary([("", "DN")])
        with pytest.raises(MappingError):
            MappingDictionary([("deviceName", "")])


class TestEncodeDecode:
    def test_power_query_request(self):
        doc = parse_json(b'{"values":[{"NoOfDevices":[2]}]}')
        coded = encode_keys(doc, POWER_MAPPING)
        assert canonical_bytes(coded) == b'{"values":[{"ND":[2]}]}'

    def test_power_reading_object(self):
        doc = parse_json(
            b'{"deviceName":"Fridge","currentWatts":86.28,"KWh":4.421,"maxWattage":288.92}'
        )
        coded = encode_keys(doc, POWER_MAPPING)
        assert canonical_bytes(coded) == b'{"DN":"Fridge","CW":86.28,"KWh":4.421,"MW":288.92}'

    def test_power_reading_decode(self):
        coded = parse_json(b'{"DN":"ComputerAndScreen","CW":50.52,"KWh":5.835,"MW":100.56}')
        plain = decode_keys(coded, POWER_MAPPING)
        assert plain == {
            "deviceName": "ComputerAndScreen",
            "currentWatts": 50.52,
            "KWh": 5.835,
            "maxWattage": 100.56,
        }
        assert list(plain) == ["deviceName", "currentWatts", "KWh", "maxWattage"]

    def test_decode_empty_object(self):
        assert decode_keys({}, POWER_MAPPING) == {}

    def test_values_never_rewritten(self):
        doc = {"label": "deviceName", "items": ["currentWatts"]}
        coded = encode_keys(doc, POWER_MAPPING)
        assert coded == {"label": "deviceName", "items": ["currentWatts"]}

    def test_collision_rejected_with_path(self):
        doc = {"values": [{"DN": 1}]}
        with pytest.raises(KeyCollisionError) as err:
            encode_keys(doc, POWER_MAPPING)
        assert err.value.key == "DN"
        assert err.value.path == "/values/0/DN"

    def test_unknown_keys_pass_both_ways(self):
        doc = {"KWh": 4.4, "extra": True}
        assert encode_keys(doc, POWER_MAPPING) == doc
        assert decode_keys(doc, EMPTY_MAPPING) == doc

    def test_round_trip_seeded(self):
        rng = random.Random(1009)
        for _ in range(300):
            doc = random_doc(rng, depth=5, forbidden=POWER_MAPPING.short_codes)
            back = decode_keys(encode_keys(doc, POWER_MAPPING), POWER_MAPPING)
            assert back == doc
            assert canonical_bytes(back) == canonical_bytes(doc)

    def test_round_trip_random_dictionaries(self):
        rng = random.Random(77)
        for _ in range(10):
            mapping = random_mapping(rng)
            keys = [long for long, _ in mapping.entries] + ["other", "KWh"]
            doc = random_doc(rng, depth=4, keys=keys, forbidden=mapping.short_codes)
            back = decode_keys(encode_keys(doc, mapping), mapping)
            assert back == doc

    def test_value_transparency(self):
        rng = random.Random(4242)
        doc = random_doc(rng, depth=5, forbidden=POWER_MAPPING.short_codes)
        coded = encode_keys(doc, POWER_MAPPING)
        assert leaf_values(coded) == leaf_values(doc)

    def test_active_kernel_reports(self):
        assert codec.active_kernel() == "pure"


class TestSerialization:
    def test_numbers_take_shortest_round_trip_form(self):
        doc = parse_json(b'{"c":0.50,"d":1E2,"n":123456789012345678901234567890}')
        assert canonical_bytes(doc) == b'{"c":0.5,"d":100.0,"n":123456789012345678901234567890}'

    def test_plain_float_uses_repr(self):
        assert canonical_bytes({"x": 0.1}) == b'{"x":0.1}'

    def test_insertion_order_preserved(self):
        doc = parse_json(b'{"b":1,"a":2}')
        assert canonical_bytes(doc) == b'{"b":1,"a":2}'

    def test_digest_ignores_whitespace_and_key_order(self):
        a = parse_json(b'{ "b": 1, "a": [1, 2] }')
        b = parse_json(b'{"a":[1,2],"b":1}')
        assert digest_value(a) == digest_value(b)
        assert digest_value(a) != digest_value({"a": [1, 2], "b": 2})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            canonical_bytes({"x": float("inf")})

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_bytes({"x": object()})
        with pytest.raises(TypeError):
            canonical_bytes({(1, 2): "non-string key"})


class TestPayloadSizeDelta:
    def test_two_device_response_shrinks(self):
        long_doc = parse_json(TWO_DEVICE_LONG)
        coded = encode_keys(long_doc, POWER_MAPPING)
        before, after = payload_size_delta(long_doc, coded)
        # frozen oracle: minified byte lengths under this serializer
        assert (before, after) == (166, 114)
        assert canonical_bytes(coded) == TWO_DEVICE_CODED

    def test_identity_counts_equal(self):
        doc = {"a": 1}
        assert payload_size_delta(doc, doc) == (7, 7)

    def test_empty_dictionary_no_change(self):
        doc = {"a": 1}
        coded = encode_keys(doc, EMPTY_MAPPING)
        before, after = payload_size_delta(doc, coded)
        assert before == after

    def test_monotone_shrinkage(self):
        rng = random.Random(31)
        mapping = random_mapping(rng, size=5)
        longs = [long for long, _ in mapping.entries]
        for _ in range(50):
            doc = {rng.choice(longs): random_doc(rng, 3, forbidden=mapping.short_codes)}
            before, after = payload_size_delta(doc, encode_keys(doc, mapping))
            assert after < before
