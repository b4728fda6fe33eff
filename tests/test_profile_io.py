"""Tests for profile file loading, validation and round-tripping."""

import json

import pytest

from crossbar_margin import (
    ProfileError,
    dump_profile,
    load_bundled_profile,
    load_profile,
    profile_from_dict,
    profile_to_dict,
)

GOOD = {
    "node": "test-node",
    "r_unit_ohm": 1.25,
    "r_transistor_ohm": 900.0,
    "leakage": [
        {"v_read_v": 0.2, "i_leak_a": 1e-11},
        {"v_read_v": 0.4, "i_leak_a": 2e-11},
    ],
}


def write(tmp_path, data, name="p.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestBundledProfile:
    def test_22nm_constants(self):
        profile = load_bundled_profile()
        assert profile.node_label == "22nm-FDSOI"
        assert profile.r_unit == 2.5
        assert profile.r_transistor == 1700.0
        assert profile.leakage_table == ((0.2, 4e-11), (0.4, 5.5e-11), (0.6, 7.4e-11))

    def test_unknown_bundled_name(self):
        with pytest.raises(ProfileError) as err:
            load_bundled_profile("3nm")
        assert "22nm" in str(err.value)


class TestLoadProfile:
    def test_valid_file(self, tmp_path):
        profile = load_profile(write(tmp_path, GOOD))
        assert profile.node_label == "test-node"
        assert profile.r_unit == 1.25
        assert profile.leakage_table == ((0.2, 1e-11), (0.4, 2e-11))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProfileError, match="not found"):
            load_profile(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ProfileError, match="not valid JSON"):
            load_profile(path)

    def test_non_object_document(self, tmp_path):
        with pytest.raises(ProfileError, match="JSON object"):
            load_profile(write(tmp_path, [1, 2, 3]))

    def test_unknown_keys_rejected_and_listed(self, tmp_path):
        data = dict(GOOD, r_wire_ohm=3.0, vendor="acme")
        with pytest.raises(ProfileError) as err:
            load_profile(write(tmp_path, data))
        message = str(err.value)
        assert "unknown keys" in message
        assert "r_wire_ohm" in message and "vendor" in message

    def test_unknown_leakage_keys_rejected(self, tmp_path):
        data = json.loads(json.dumps(GOOD))
        data["leakage"][0]["i_leak_pa"] = 10
        with pytest.raises(ProfileError, match="i_leak_pa"):
            load_profile(write(tmp_path, data))

    def test_missing_keys(self, tmp_path):
        data = {"node": "x"}
        with pytest.raises(ProfileError, match="missing required keys"):
            load_profile(write(tmp_path, data))

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda d: d.update(vendor="acme", r_wire_ohm=3.0),
          "profile: unknown keys rejected: r_wire_ohm, vendor "
          "(expected only node, r_unit_ohm, r_transistor_ohm, leakage)"),
         (lambda d: d.pop("r_unit_ohm") and d.pop("leakage"),
          "profile: missing required keys: r_unit_ohm, leakage"),
         (lambda d: d["leakage"][1].update(i_leak_pa=10),
          "profile: leakage[1]: unknown keys rejected: i_leak_pa"),
         (lambda d: d["leakage"][0].pop("v_read_v"),
          "profile: leakage[0]: missing required keys: v_read_v")],
        ids=["unknown", "missing", "leakage-unknown", "leakage-missing"],
    )
    def test_key_messages(self, edit, message):
        data = json.loads(json.dumps(GOOD))
        edit(data)
        with pytest.raises(ProfileError) as err:
            profile_from_dict(data)
        assert str(err.value) == message

    def test_empty_leakage_table(self, tmp_path):
        with pytest.raises(ProfileError, match="non-empty"):
            load_profile(write(tmp_path, dict(GOOD, leakage=[])))

    def test_decreasing_leakage_current(self, tmp_path):
        data = dict(
            GOOD,
            leakage=[
                {"v_read_v": 0.2, "i_leak_a": 2e-11},
                {"v_read_v": 0.4, "i_leak_a": 1e-11},
            ],
        )
        with pytest.raises(ProfileError, match="non-decreasing"):
            load_profile(write(tmp_path, data))

    def test_duplicate_voltages(self, tmp_path):
        data = dict(
            GOOD,
            leakage=[
                {"v_read_v": 0.2, "i_leak_a": 1e-11},
                {"v_read_v": 0.2, "i_leak_a": 2e-11},
            ],
        )
        with pytest.raises(ProfileError, match="strictly increasing"):
            load_profile(write(tmp_path, data))

    def test_non_numeric_field(self, tmp_path):
        with pytest.raises(ProfileError, match="must be a number"):
            load_profile(write(tmp_path, dict(GOOD, r_unit_ohm="2.5")))
        with pytest.raises(ProfileError, match="must be a number"):
            load_profile(write(tmp_path, dict(GOOD, r_transistor_ohm=True)))

    def test_non_string_node(self, tmp_path):
        with pytest.raises(ProfileError, match="string"):
            load_profile(write(tmp_path, dict(GOOD, node=22)))

    def test_unsorted_leakage_entries_are_sorted(self, tmp_path):
        data = dict(GOOD, leakage=list(reversed(GOOD["leakage"])))
        profile = load_profile(write(tmp_path, data))
        assert profile.leakage_table == ((0.2, 1e-11), (0.4, 2e-11))


class TestRoundTrip:
    def test_load_dump_load_identical(self, tmp_path, profile22):
        path = tmp_path / "out.json"
        dump_profile(profile22, path)
        again = load_profile(path)
        assert again == profile22

    def test_dict_round_trip(self, profile22):
        assert profile_from_dict(profile_to_dict(profile22)) == profile22
