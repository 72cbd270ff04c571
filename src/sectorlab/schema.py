"""The config rules: `data/scenario.schema.json` and its one checker.

The schema is the one statement of what a config value may be.  The
checker reads the draft-07 subset the schema uses: `type` (a name or a
list, `null` included), `enum`, `required`, `properties`,
`additionalProperties: false`, `items`, `minItems`, `maxItems`,
`minimum`, `maximum`, `exclusiveMinimum` and `exclusiveMaximum`.  It
differs from draft-07 on two points, both on purpose: a number is a
finite int or float, never a bool, nan or inf; and an integer is an
`Integral`, so integral floats such as 1.0 are not integers.  Bounds
apply to numbers only.
"""

import json
import math
import numbers
import operator
from importlib import resources

from .errors import ConfigError

SCHEMA = json.loads((resources.files("sectorlab") / "data" / "scenario.schema.json").read_text())

_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "null": lambda x: x is None,
    "integer": lambda x: isinstance(x, numbers.Integral) and not isinstance(x, bool),
    "number": lambda x: _TYPES["integer"](x) or isinstance(x, float) and math.isfinite(x),
}
_BOUNDS = (("minimum", ">=", operator.ge), ("maximum", "<=", operator.le),
           ("exclusiveMinimum", ">", operator.gt), ("exclusiveMaximum", "<", operator.lt))


def validate(value, rule: dict, path: str):
    """value, if it meets `rule`; else a `ConfigError` that names the key
    path of the first part that breaks it (`weight.params.value`,
    `K.members[0]`)."""
    types = rule.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_TYPES[t](value) for t in types):
        raise ConfigError(f"{path} must be of type {' or '.join(types)}, got {value!r}")
    if "enum" in rule and value not in rule["enum"]:
        raise ConfigError(f"{path} must be one of {rule['enum']}, got {value!r}")
    for key, op, holds in _BOUNDS:
        if key in rule and _TYPES["number"](value) and not holds(value, rule[key]):
            raise ConfigError(f"{path} must be {op} {rule[key]}, got {value!r}")
    if isinstance(value, dict):
        missing = [key for key in rule.get("required", ()) if key not in value]
        if missing:
            raise ConfigError(f"{path} lacks key(s) {', '.join(missing)}")
        props = rule.get("properties", {})
        unknown = sorted(set(value) - set(props))
        if rule.get("additionalProperties", True) is False and unknown:
            raise ConfigError(f"{path} has unknown key(s) {', '.join(unknown)}")
        for key, sub in props.items():
            if key in value:
                validate(value[key], sub, f"{path}.{key}")
    if isinstance(value, list):
        if not rule.get("minItems", 0) <= len(value) <= rule.get("maxItems", math.inf):
            raise ConfigError(f"{path} has the wrong number of items, {len(value)}: {value!r}")
        for i, item in enumerate(value):
            validate(item, rule.get("items", {}), f"{path}[{i}]")
    return value


def check(key: str, value):
    """value, if it meets the schema's rule for the top-level `key`."""
    return validate(value, SCHEMA["properties"][key], key)
