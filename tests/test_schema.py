"""The config checker of `sectorlab.schema` against jsonschema, and the
schema against the keys the readers take from a config."""

import math
import re
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from sectorlab import ConfigError
from sectorlab.schema import SCHEMA, check, validate

SRC = Path(__file__).resolve().parents[1] / "src" / "sectorlab"

# JSON leaves; no integral float, no nan or inf: those are the two intended
# differences from draft-07, asserted on their own below
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=2),
                   st.floats(-3.0, 3.0).filter(lambda x: x != int(x)))


def near(rule: dict):
    """JSON values near `rule`: shaped by it (its enum, its properties with
    or without the required ones, its items) or any leaf."""
    options = [LEAVES]
    if "enum" in rule:
        options.append(st.sampled_from(rule["enum"]))
    props = rule.get("properties")
    if props:
        optional = {k: near(r) for k, r in props.items()}
        required = {k: optional.pop(k) for k in rule.get("required", ()) if k in optional}
        options += [st.fixed_dictionaries(required, optional=optional),
                    st.fixed_dictionaries({}, optional={**required, **optional,
                                                        "extra": LEAVES})]
    if "items" in rule:
        options.append(st.lists(near(rule["items"]), max_size=3))
    return st.one_of(options)


def ours(value, rule) -> bool:
    try:
        validate(value, rule, "cfg")
    except ConfigError:
        return False
    return True


@pytest.mark.parametrize("key", [None, *SCHEMA["properties"]])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_checker_agrees_with_jsonschema(key, data):
    rule = SCHEMA if key is None else SCHEMA["properties"][key]
    value = data.draw(near(rule))
    assert ours(value, rule) == jsonschema.Draft7Validator(rule).is_valid(value)


@pytest.mark.parametrize("key, value", [("K", {"kind": "finite", "members": [1.0, 2]}),
                                        ("K", {"kind": "arith", "start": 0, "step": 2.0}),
                                        ("horizon", math.nan), ("horizon", math.inf),
                                        ("weight", {"family": "exp_decay",
                                                    "certificate": {"M": 1, "w": -math.inf}})])
def test_the_two_intended_differences_from_draft7(key, value):
    # draft-07 counts 1.0 as an integer and nan or inf as numbers; the
    # config rules do not
    assert jsonschema.Draft7Validator(SCHEMA["properties"][key]).is_valid(value)
    with pytest.raises(ConfigError, match=re.escape(key)):
        check(key, value)


@pytest.mark.parametrize("key, value, where", [
    ("weight", {"family": "constant", "params": {"value": 0}}, "weight.params.value must be >"),
    ("K", {"kind": "finite", "members": [2, -1]}, "K.members[1] must be >="),
    ("grid", {"n_r": 4, "nr": 4}, "grid has unknown key(s) nr"),
    ("function", {"kind": "bump"}, "function lacks key(s) params"),
])
def test_an_error_names_its_key_path(key, value, where):
    with pytest.raises(ConfigError, match=re.escape(where)):
        check(key, value)


def test_bounds_apply_to_numbers_only():
    assert check("grid", {"n_theta": None}) == {"n_theta": None}


# how cli.py and criteria.py read a config or scenario: the variable, and
# the schema path of the object it holds
READERS = {"cfg": (), "thr": ("thresholds",), "hor": ("horizons",), "adm": ("admissibility",)}
ACCESS = r"""(?:\[["'](\w+)["']\]|\.get\(["'](\w+)["'](?:, [^()]*)?\))"""


def keys_read(text: str) -> set:
    """Schema paths of every key read from a config in `text`: chains of
    `[...]` and `.get(...)` on a reader variable, and `"key" in var`."""
    found = set()
    for var, base in READERS.items():
        for chain in re.finditer(rf"\b{var}((?:{ACCESS})+)", text):
            found.add(base + tuple(a or b for a, b in re.findall(ACCESS, chain.group(1))))
        found |= {base + (key,) for key in re.findall(rf"""["'](\w+)["'] in {var}\b""", text)}
    return found


def test_the_schema_declares_every_key_read_from_a_config():
    found = set().union(*(keys_read((SRC / name).read_text())
                          for name in ("cli.py", "criteria.py")))
    # the scan sees the readers it is meant to see
    assert {("thresholds", "epsilon"), ("grids", "orbit_n_theta"), ("sampling", "seed"),
            ("admissibility", "w"), ("ray", "t1"), ("horizon",), ("grid",),
            ("witness_bound",)} <= found
    for path in found:
        rule = SCHEMA
        for key in path:
            assert key in rule.get("properties", {}), f"schema lacks {'.'.join(path)}"
            rule = rule["properties"][key]
