"""The input rules: `data/scenario.schema.json` and its one checker.

The schema is the one statement of what an input may be: a config value
under `properties`, and under `$defs` a field of a library class, keyed
by the class name, or a scalar argument of a public function or method,
keyed by its qualname (`Sector.point`); `check_fields` checks either.
The checker reads the draft-07 subset the schema uses: `type` (a name or
a list, `null` included), `enum`, `required`, `properties`,
`additionalProperties: false`, `items`, `minItems`, `maxItems`,
`minimum`, `maximum`, `exclusiveMinimum`, `exclusiveMaximum` and `$ref`
to a local JSON pointer (`#/properties/alpha`); as in draft-07, a rule
with a `$ref` is its target alone.  It differs from draft-07 on two
points, both on purpose: a number is a finite real (numpy's too), never
a bool, nan or inf; and an integer is an `Integral`, so integral floats
such as 1.0 are not integers.  An array is a list or a tuple, since
Python callers pass tuples; JSON yields neither numpy scalars nor
tuples, so neither widening changes a config's verdict.  Bounds apply to
numbers only.
"""

import functools
import json
import math
import numbers
import operator
from importlib import resources

from .errors import ConfigError, DomainError

SCHEMA = json.loads((resources.files("sectorlab") / "data" / "scenario.schema.json").read_text())


# exact int and float, the common cases, skip the slow ABC checks
def _is_integer(x) -> bool:
    if type(x) is int:
        return True
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_number(x) -> bool:
    if type(x) is float:
        return math.isfinite(x)
    return _is_integer(x) or (
        isinstance(x, numbers.Real) and not isinstance(x, numbers.Integral) and math.isfinite(x))


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, (list, tuple)),
    "string": lambda x: isinstance(x, str),
    "null": lambda x: x is None,
    "integer": _is_integer,
    "number": _is_number,
}
_BOUNDS = (("minimum", ">=", operator.ge), ("maximum", "<=", operator.le),
           ("exclusiveMinimum", ">", operator.gt), ("exclusiveMaximum", "<", operator.lt))


@functools.cache
def _resolve(ref: str) -> dict:
    """The rule at the local JSON pointer `ref` (`#/properties/alpha`)."""
    rule = SCHEMA
    for key in ref.lstrip("#").split("/")[1:]:
        rule = rule[key]
    return rule


def validate(value, rule: dict, path: str):
    """value, if it meets `rule`; else a `ConfigError` that names the key
    path of the first part that breaks it (`weight.params.value`,
    `K.members[0]`)."""
    while "$ref" in rule:
        rule = _resolve(rule["$ref"])
    types = rule.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_TYPES[t](value) for t in types):
        raise ConfigError(f"{path} must be of type {' or '.join(types)}, got {value!r}")
    if "enum" in rule and value not in rule["enum"]:
        raise ConfigError(f"{path} must be one of {rule['enum']}, got {value!r}")
    bounded = [bound for bound in _BOUNDS if bound[0] in rule]
    if bounded and _is_number(value):
        for key, op, holds in bounded:
            if not holds(value, rule[key]):
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
    if _TYPES["array"](value):
        if not rule.get("minItems", 0) <= len(value) <= rule.get("maxItems", math.inf):
            raise ConfigError(f"{path} has the wrong number of items, {len(value)}: {value!r}")
        for i, item in enumerate(value):
            validate(item, rule.get("items", {}), f"{path}[{i}]")
    return value


def check(key: str, value):
    """value, if it meets the schema's rule for the top-level `key`."""
    return validate(value, SCHEMA["properties"][key], key)


def check_fields(obj, **args) -> None:
    """Raise `DomainError` unless the fields of `obj`, a dataclass instance,
    meet the rule `$defs` holds under its class name; or, given `args`,
    unless those arguments of `obj`, a function or method, meet the rule
    under its qualname.  The message names `Class.field` or
    `function.arg` as a config error names its key path
    (`PairSampling.n_random must be >= 0, got -1`,
    `IndexSet.counting_ratio.n must be >= 1, got 0`)."""
    name = (obj if args else type(obj)).__qualname__
    try:
        validate(args or vars(obj), SCHEMA["$defs"][name], name)
    except ConfigError as exc:
        raise DomainError(str(exc)) from None
