"""Technology-profile files: JSON schema, validation, the bundled profile.

The on-disk format spells units out in the field names so a picofarad /
kiloohm mixup cannot hide behind a bare number:

    {
      "node": "22nm-FDSOI",
      "r_unit_ohm": 2.5,
      "r_transistor_ohm": 1700.0,
      "leakage": [
        {"v_read_v": 0.2, "i_leak_a": 4e-11},
        ...
      ]
    }

Unknown keys are rejected so typos fail loudly instead of silently
falling back to defaults.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .model import TechnologyProfile
from .results import write_text

PROFILE_KEYS = ("node", "r_unit_ohm", "r_transistor_ohm", "leakage")
LEAKAGE_KEYS = ("v_read_v", "i_leak_a")


class ProfileError(ValueError):
    """A profile file could not be read or does not satisfy the schema."""


def _as_number(obj: dict, key: str, where: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProfileError(f"{where}: field {key!r} must be a number, got {value!r}")
    return float(value)


def _check_keys(obj: dict, keys: tuple[str, ...], where: str, hint: str = "") -> None:
    """Reject unknown keys (naming them, then hint), then missing ones."""
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ProfileError(f"{where}: unknown keys rejected: {', '.join(unknown)}{hint}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ProfileError(f"{where}: missing required keys: {', '.join(missing)}")


def profile_from_dict(data: object, where: str = "profile") -> TechnologyProfile:
    """Validate a decoded JSON object into a TechnologyProfile."""
    if not isinstance(data, dict):
        raise ProfileError(f"{where}: document must be a JSON object")
    _check_keys(data, PROFILE_KEYS, where, f" (expected only {', '.join(PROFILE_KEYS)})")
    if not isinstance(data["node"], str):
        raise ProfileError(f"{where}: field 'node' must be a string")
    entries = data["leakage"]
    if not isinstance(entries, list) or not entries:
        raise ProfileError(f"{where}: 'leakage' must be a non-empty list")
    table = []
    for idx, entry in enumerate(entries):
        spot = f"{where}: leakage[{idx}]"
        if not isinstance(entry, dict):
            raise ProfileError(f"{spot} must be an object")
        _check_keys(entry, LEAKAGE_KEYS, spot)
        table.append(
            (_as_number(entry, "v_read_v", spot), _as_number(entry, "i_leak_a", spot))
        )
    table.sort(key=lambda vi: vi[0])
    try:
        return TechnologyProfile(
            node_label=data["node"],
            r_unit=_as_number(data, "r_unit_ohm", where),
            r_transistor=_as_number(data, "r_transistor_ohm", where),
            leakage_table=tuple(table),
        )
    except ValueError as exc:
        raise ProfileError(f"{where}: {exc}") from exc


def profile_to_dict(profile: TechnologyProfile) -> dict:
    return {
        "node": profile.node_label,
        "r_unit_ohm": profile.r_unit,
        "r_transistor_ohm": profile.r_transistor,
        "leakage": [
            {"v_read_v": v, "i_leak_a": i} for v, i in profile.leakage_table
        ],
    }


def load_profile(path: str | Path) -> TechnologyProfile:
    """Load and validate a profile file; every failure mode gets its own message."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ProfileError(f"profile file not found: {path}") from exc
    except OSError as exc:
        raise ProfileError(f"cannot read profile file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileError(f"{path} is not valid JSON: {exc}") from exc
    return profile_from_dict(data, where=str(path))


def dump_profile(profile: TechnologyProfile, path: str | Path) -> None:
    """Write a profile as formatted JSON that load_profile reads back identically."""
    write_text(path, json.dumps(profile_to_dict(profile), indent=2) + "\n")


def load_bundled_profile() -> TechnologyProfile:
    """Load the profile shipped with the package, the 22nm FDSOI node."""
    text = (resources.files(__package__) / "profiles" / "22nm.json").read_text(encoding="utf-8")
    return profile_from_dict(json.loads(text), where="bundled profile '22nm'")
