"""Scenario files: a strict JSON schema with optional exact fractions.

Fields: name, kind, n, pairs, singles, joints, plus optional expectations
and angles_deg. Unknown keys are rejected. Probabilities may be JSON numbers
or fraction strings like "3/8"; fractions parse to `fractions.Fraction` and
survive a round trip, so exact-mode polytope checks stay exact.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Union

from .core import (
    CH_SHAPE,
    CorrelationVector,
    ExpectationSet,
    Prob,
    Scenario,
    ValidationError,
)
from .models import SingletConfig, singlet_scenario

SCENARIO_FIELDS = {
    "name", "kind", "n", "pairs", "singles", "joints", "expectations", "angles_deg",
}

ANGLE_LABELS = ("a1", "a2", "a3", "a4")


class ScenarioFormatError(ValueError):
    """A scenario file cannot be read, is not UTF-8 JSON, or fails the schema."""


def parse_value(raw, field: str) -> Prob:
    """Parse a JSON value into a probability/expectation component."""
    if isinstance(raw, bool):
        raise ScenarioFormatError(f"field {field}: booleans are not numbers")
    if isinstance(raw, (int, float)):
        return raw
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioFormatError(f"field {field}: bad fraction {raw!r}") from exc
    raise ScenarioFormatError(f"field {field}: expected number or fraction string")


def format_value(value: Prob):
    """Inverse of parse_value: fractions become strings, numbers stay numbers."""
    if isinstance(value, Fraction):
        return str(value)
    return value


def _pair_key(i: int, j: int) -> str:
    return f"{i},{j}"


def _parse_index(text: str) -> int:
    """An event index spelled in ASCII decimal digits and nothing else.

    int() alone would also take " 1", "+2", "1_0" and non-ASCII digits.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a plain decimal index: {text!r}")
    return int(text)


def _parse_pair_key(key: str, field: str) -> tuple[int, int]:
    try:
        i, j = (_parse_index(part) for part in key.split(","))
    except ValueError as exc:
        raise ScenarioFormatError(f"field {field}: bad pair key {key!r}") from exc
    return i, j


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: plain json.loads would keep the last of repeated keys."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ScenarioFormatError(f"duplicate key {key!r}")
        data[key] = value
    return data


def loads_scenario(text: str) -> Scenario:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(data)


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Parse a scenario file; a file that cannot be read raises ScenarioFormatError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except OSError as exc:
        raise ScenarioFormatError(str(exc)) from exc
    return loads_scenario(text)


def scenario_from_dict(data) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioFormatError("top level must be a JSON object")
    unknown = set(data) - SCENARIO_FIELDS
    if unknown:
        raise ScenarioFormatError(f"unknown fields: {sorted(unknown)}")
    for required in ("name", "kind"):
        if required not in data:
            raise ScenarioFormatError(f"missing field {required!r}")
    name = data["name"]
    kind = data["kind"]
    if not isinstance(name, str) or not isinstance(kind, str):
        raise ScenarioFormatError("name and kind must be strings")

    if kind == "singlet":
        vector_fields = {"n", "pairs", "singles", "joints", "expectations"} & set(data)
        if vector_fields:
            raise ScenarioFormatError(
                f"singlet scenarios derive their vector from angles_deg; "
                f"remove {sorted(vector_fields)}"
            )
        angles = data.get("angles_deg")
        if not isinstance(angles, dict) or set(angles) != set(ANGLE_LABELS):
            raise ScenarioFormatError("field angles_deg: expected keys a1..a4")
        degs = []
        for label in ANGLE_LABELS:
            raw = angles[label]
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise ScenarioFormatError(f"field angles_deg.{label}: expected a number")
            if not abs(raw) <= sys.float_info.max:  # also NaN, and ints float() cannot take
                raise ScenarioFormatError(f"field angles_deg.{label}: expected a finite number")
            degs.append(float(raw))
        cfg = SingletConfig(*(math.radians(d) for d in degs))
        return singlet_scenario(cfg, name=name)

    if "angles_deg" in data:
        raise ScenarioFormatError("field angles_deg is only valid for kind 'singlet'")
    for required in ("n", "pairs", "singles", "joints"):
        if required not in data:
            raise ScenarioFormatError(f"missing field {required!r}")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ScenarioFormatError("field n: expected an integer")
    raw_pairs = data["pairs"]
    if not isinstance(raw_pairs, list):
        raise ScenarioFormatError("field pairs: expected a list of [i, j] pairs")
    pairs = []
    for entry in raw_pairs:
        if not (isinstance(entry, list) and len(entry) == 2
                and all(type(i) is int for i in entry)):  # type(): no bools
            raise ScenarioFormatError(f"field pairs: bad entry {entry!r}")
        pairs.append(tuple(entry))
    raw_singles = data["singles"]
    if not isinstance(raw_singles, dict):
        raise ScenarioFormatError("field singles: expected an object")
    singles = {}
    for key, raw in raw_singles.items():
        try:
            idx = _parse_index(key)
        except ValueError as exc:
            raise ScenarioFormatError(f"field singles: bad index {key!r}") from exc
        if idx in singles:
            raise ScenarioFormatError(f"field singles: duplicate index {key!r}")
        singles[idx] = parse_value(raw, f"singles.{key}")
    raw_joints = data["joints"]
    if not isinstance(raw_joints, dict):
        raise ScenarioFormatError("field joints: expected an object")
    joints = {}
    for key, raw in raw_joints.items():
        pair = _parse_pair_key(key, "joints")
        if pair in joints:
            raise ScenarioFormatError(f"field joints: duplicate pair {key!r}")
        joints[pair] = parse_value(raw, f"joints.{key}")
    try:
        vector = CorrelationVector(n, tuple(pairs), singles, joints)
    except ValidationError as exc:
        raise ScenarioFormatError(str(exc)) from exc

    expectations = None
    if "expectations" in data:
        raw_exp = data["expectations"]
        if not isinstance(raw_exp, dict):
            raise ScenarioFormatError("field expectations: expected an object")
        keys = {_parse_pair_key(k, "expectations") for k in raw_exp}
        if keys != set(CH_SHAPE):
            raise ScenarioFormatError(
                "field expectations: expected exactly the keys 1,3 1,4 2,3 2,4"
            )
        values = {
            _parse_pair_key(k, "expectations"): parse_value(w, f"expectations.{k}")
            for k, w in raw_exp.items()
        }
        try:
            expectations = ExpectationSet(*(values[p] for p in CH_SHAPE))
        except ValidationError as exc:
            raise ScenarioFormatError(str(exc)) from exc

    try:
        return Scenario(name, kind, vector=vector, expectations=expectations)
    except ValidationError as exc:
        raise ScenarioFormatError(str(exc)) from exc


def scenario_to_dict(scenario: Scenario) -> dict:
    if scenario.kind == "singlet":
        if scenario.angles is None:
            raise ValueError("singlet scenario carries no angles")
        return {
            "name": scenario.name,
            "kind": "singlet",
            "angles_deg": {
                label: math.degrees(scenario.angles[label]) for label in ANGLE_LABELS
            },
        }
    v = scenario.vector
    if v is None:
        raise ValueError("scenario carries no correlation vector")
    data = {
        "name": scenario.name,
        "kind": scenario.kind,
        "n": v.n,
        "pairs": [list(p) for p in v.pairs],
        "singles": {str(i): format_value(v.singles[i]) for i in range(1, v.n + 1)},
        "joints": {_pair_key(i, j): format_value(v.joints[(i, j)]) for i, j in v.pairs},
    }
    if scenario.expectations is not None:
        e = scenario.expectations
        data["expectations"] = {
            "1,3": format_value(e.e13),
            "1,4": format_value(e.e14),
            "2,3": format_value(e.e23),
            "2,4": format_value(e.e24),
        }
    return data


def dumps_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


def save_scenario(scenario: Scenario, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps_scenario(scenario), encoding="utf-8")
