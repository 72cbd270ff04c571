"""The checker of `sectorlab.schema` against jsonschema, and the schema
against the keys the readers take from a config and against the fields of
the classes whose rules it holds."""

import ast
import dataclasses
import functools
import inspect
import math
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from referencing import Registry
from referencing.jsonschema import DRAFT7

import sectorlab
from sectorlab import ConfigError
from sectorlab.schema import SCHEMA, _resolve, check, validate

SRC = Path(__file__).resolve().parents[1] / "src" / "sectorlab"

# JSON leaves; no integral float, no nan or inf: those are the two intended
# differences from draft-07, asserted on their own below
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=2),
                   st.floats(-3.0, 3.0).filter(lambda x: x != int(x)))


def near(rule: dict):
    """JSON values near `rule`: shaped by it (its enum, its properties with
    or without the required ones, its items) or any leaf."""
    while "$ref" in rule:
        rule = _resolve(rule["$ref"])
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


REGISTRY = Registry().with_resource(SCHEMA["$id"], DRAFT7.create_resource(SCHEMA))


@functools.cache  # one validator per pointer serves every example
def draft7(pointer: str) -> jsonschema.Draft7Validator:
    """jsonschema's draft-07 validator of the rule at the local JSON pointer
    `pointer`, its `$ref`s resolved against the whole schema."""
    return jsonschema.Draft7Validator({"$ref": SCHEMA["$id"] + pointer}, registry=REGISTRY)


# every rule: the whole schema, each config key and each class's fields
POINTERS = {None: "#", **{key: f"#/properties/{key}" for key in SCHEMA["properties"]},
            **{f"$defs.{name}": f"#/$defs/{name}" for name in SCHEMA["$defs"]}}


@functools.cache
def near_pointer(pointer: str):
    """`near` of the rule at `pointer`, built once per pointer."""
    return near({"$ref": pointer})


@pytest.mark.parametrize("key", POINTERS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_checker_agrees_with_jsonschema(key, data):
    value = data.draw(near_pointer(POINTERS[key]))
    assert ours(value, {"$ref": POINTERS[key]}) == draft7(POINTERS[key]).is_valid(value)


@pytest.mark.parametrize("key, value", [("K", {"kind": "finite", "members": [1.0, 2]}),
                                        ("K", {"kind": "arith", "start": 0, "step": 2.0}),
                                        ("horizon", math.nan), ("p", math.inf),
                                        ("weight", {"family": "exp_decay",
                                                    "certificate": {"M": 1, "w": -math.inf}})])
def test_the_two_intended_differences_from_draft7(key, value):
    # draft-07 counts 1.0 as an integer and nan or inf as numbers; the
    # config rules do not
    assert draft7(f"#/properties/{key}").is_valid(value)
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


def rules(rule):
    """Every rule nested in `rule`, `rule` included."""
    yield rule
    for sub in (*rule.get("properties", {}).values(), *rule.get("$defs", {}).values(),
                *([rule["items"]] if "items" in rule else [])):
        yield from rules(sub)


def test_a_ref_stands_alone_and_points_into_the_schema():
    # draft-07 ignores every keyword beside a $ref
    refs = [rule for rule in rules(SCHEMA) if "$ref" in rule]
    assert refs
    for rule in refs:
        assert set(rule) == {"$ref"} and rule["$ref"].startswith("#/")
        assert isinstance(_resolve(rule["$ref"]), dict)


def named(name: str):
    """The class, function or method a `$defs` key names (`Sector.point`)."""
    return functools.reduce(getattr, name.split("."), sectorlab)


@pytest.mark.parametrize("name", SCHEMA["$defs"])
def test_each_defs_rule_names_a_public_class_or_function_and_its_fields(name):
    # the dataclass fields, or the parameters of the function or method
    assert not any(part.startswith("_") for part in name.split("."))
    owner = named(name)
    assert owner.__qualname__ == name
    names = ({f.name for f in dataclasses.fields(owner)} if inspect.isclass(owner)
             else set(inspect.signature(owner).parameters))
    assert set(SCHEMA["$defs"][name]["properties"]) <= names


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


def literal(node) -> bool:
    """Whether `node` is a literal: a constant, a signed one, or a tuple,
    list or set of them."""
    if isinstance(node, ast.UnaryOp):
        return literal(node.operand)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return all(map(literal, node.elts))
    return isinstance(node, ast.Constant)


def hand_checks(text: str) -> set:
    """Names of the functions in `text` with an `if` that raises
    `DomainError` (in its body or its else) and whose test compares one of
    the function's own parameters with a literal (`R <= 0`, `R is None`,
    `side not in ("super", "sub")`): an argument rule stated in Python."""
    found = set()
    for fn in ast.walk(ast.parse(text)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
        for node in ast.walk(fn):
            if not isinstance(node, ast.If) or not any(
                    isinstance(s, ast.Raise) and isinstance(s.exc, ast.Call)
                    and getattr(s.exc.func, "id", None) == "DomainError"
                    for s in node.body + node.orelse):
                continue
            for cmp in (c for c in ast.walk(node.test) if isinstance(c, ast.Compare)):
                operands = [cmp.left, *cmp.comparators]
                if (any(isinstance(o, ast.Name) and o.id in params for o in operands)
                        and any(map(literal, operands))):
                    found.add(fn.name)
    return found


# the argument rules that stay in Python, each because it is relational:
# _front refuses R = None only for a function of unbounded support
RELATIONAL = {"lpspace.py": {"_front"}}


def test_no_argument_rule_is_stated_by_hand():
    # the rule belongs in the schema's $defs, checked by check_fields
    for path in sorted(SRC.glob("*.py")):
        assert hand_checks(path.read_text()) == RELATIONAL.get(path.name, set()), path.name


# a valid call of each class, function or method the `$defs` rules hold,
# with a small orbit grid, profile and witness where one is needed
S, V = sectorlab.Sector(0.5), sectorlab.exp_decay()
SPACE, K = sectorlab.LpSpace(V, 2.0, S), sectorlab.IndexSet.all_naturals()
UNIT = sectorlab.annuli_union([0], S)
F, SMALL = sectorlab.indicator(UNIT), sectorlab.OrbitResolution(n_r=2, n_theta=1)
GRID = sectorlab.orbit_profile(SPACE, F, 2.0, SMALL)
VALID = {"Sector": dict(alpha=0.5),
         "LpSpace": dict(weight=V, p=2.0, sector=S),
         "Certificate": dict(M=1.0, w=0.0), "IndexSet": dict(kind="all"),
         "OrbitResolution": {}, "PairSampling": {}, "WitnessSampling": {},
         "RadiusSchedule": {}, "bump": dict(center=1 + 0j, radius=0.5, amplitude=1.0),
         "custom_function": dict(fn=abs, support_radius=None),
         "Sector.point": dict(self=S, r=1.0, theta=0.0),
         "truncated_measure": dict(sector=S, r=1.0),
         "translate_set": dict(A=UNIT, t0=0.5, sector=S, direction="minus"),
         "density_estimates": dict(profile=sectorlab.density_profile(UNIT, [1.0, 2.0], S),
                                   window=1, settle_tol=0.05),
         "weight_integral": dict(v=V, R=1.0, sector=S, tail="none"),
         "grid_minimum": dict(v=V, R=1.0, sector=S, n_r=2, n_theta=2),
         "compact_lower_bound": dict(v=V, R=1.0, sector=S),
         "lp_norm": dict(space=SPACE, f=F, R=None),
         "orbit_profile": dict(space=SPACE, f=F, R=2.0, resolution=SMALL),
         "level_density": dict(grid=GRID, threshold=0.1, side="super", schedule=[1.0]),
         "pair_diagnostic": dict(space=SPACE, x=F, y=F.scaled(0.5), epsilon=0.1, delta=0.1,
                                 R=2.0, resolution=SMALL, schedule=[1.0], window=1, tol=0.05),
         "unboundedness_diagnostic": dict(grid=GRID, thresholds=[0.1], schedule=[1.0],
                                          window=1, tol=0.05),
         "IndexSet.counting_ratio": dict(self=K, n=1),
         "dc_sufficient_series": dict(v=V, K=K, k_max=1, sector=S),
         "devaney_ray_series": dict(v=V, t1=1.0, k_max=1, sector=S),
         "build_witness": dict(v=V, K=K, p=2.0, sector=S, k_cap=4, bound="auto"),
         "verify_witness": dict(space=SPACE, pkg=sectorlab.build_witness(V, K, 2.0, S, k_cap=4),
                                K=K, R=3.0, sampling=sectorlab.WitnessSampling(1, 1, 0, 0),
                                tol=1e-4),
         "indicator": dict(rects=UNIT, amplitude=1.0),
         "SectorFunction.scaled": dict(self=F, c=2.0),
         "linear_combination": dict(terms=[(1.0, F)])}


@pytest.mark.parametrize("name", SCHEMA["$defs"])
def test_each_defs_rule_has_a_valid_call_that_runs(name):
    named(name)(**VALID[name])


def breaking(rule: dict) -> list:
    """Values that break `rule`: a string, a bool, nan and inf for a number
    or an integer, a fraction for an integer, a value just past each
    bound, and for an array no item and an item that breaks its item rule."""
    while "$ref" in rule:
        rule = _resolve(rule["$ref"])
    types = rule.get("type", [])
    types = [types] if isinstance(types, str) else types
    values = ["x", True]
    if "number" in types:
        values += [math.nan, math.inf, -math.inf]
    elif "integer" in types:
        values += [1.5, math.nan, math.inf, -math.inf]
    if "minimum" in rule:
        values.append(rule["minimum"] - 1)
    if "maximum" in rule:
        values.append(rule["maximum"] + 1)
    values += [rule[key] for key in ("exclusiveMinimum", "exclusiveMaximum") if key in rule]
    if "array" in types:
        values += [[]] * bool(rule.get("minItems")) + [[item] for item in breaking(rule["items"])]
    return values


def cases(name: str, key: str, rule: dict) -> list:
    """(shown, passed) for each value that breaks the rule of `name.key`.
    Two arguments are checked in another form than they are passed: bump's
    complex center as [c.real, c.imag], so only a part that is not finite
    breaks it, and linear_combination's (coef, f) terms as their coefs."""
    while "$ref" in rule:
        rule = _resolve(rule["$ref"])
    if (name, key) == ("bump", "center"):
        return [([x, 0.0], complex(x, 0.0)) for x in breaking(rule["items"])
                if isinstance(x, float)] + [([0.0, math.nan], complex(0.0, math.nan))]
    if (name, key) == ("linear_combination", "terms"):
        return [([x], [(x, F)]) for x in breaking(rule["items"])]
    return [(x, x) for x in breaking(rule)]


FIELD_CASES = [(name, key, shown, value) for name, rule in SCHEMA["$defs"].items()
               for key, sub in rule["properties"].items()
               for shown, value in cases(name, key, sub)]


@pytest.mark.parametrize("name, key, shown, value", FIELD_CASES,
                         ids=[f"{n}.{k}={s!r}" for n, k, s, _ in FIELD_CASES])
def test_a_field_that_breaks_its_rule_raises_domain_error_naming_it(name, key, shown, value):
    with pytest.raises(sectorlab.DomainError, match=re.escape(f"{name}.{key}")):
        named(name)(**{**VALID[name], key: value})


@pytest.mark.parametrize("M, w", [(math.nan, 0.0), (1.0, math.nan), (1.0, math.inf)])
def test_a_certificate_that_is_not_finite_is_refused_not_passed(M, w):
    # it used to report ok=True: every comparison with nan is False
    with pytest.raises(sectorlab.DomainError, match="Certificate"):
        sectorlab.admissibility_check(sectorlab.exp_decay(), M, w, sectorlab.Sector(0.5))


def test_numpy_scalars_and_tuples_meet_the_field_rules():
    f32, i64, f64 = np.float32, np.int64, np.float64
    sector = sectorlab.Sector(f32(0.5))
    assert sectorlab.LpSpace(sectorlab.exp_decay(), i64(3), sector).p == 3
    assert sectorlab.Certificate(f32(1.5), i64(-1)).w == -1
    assert sectorlab.IndexSet("finite", (i64(1), i64(2))).members == (1, 2)
    assert sectorlab.IndexSet.arithmetic(i64(1), i64(2)).step == 2
    assert sectorlab.OrbitResolution(i64(2), i64(1)).n_r == 2
    assert sectorlab.RadiusSchedule(f32(0.5), f64(1.5), i64(3)).count == 3
    assert len(sectorlab.PairSampling(grid_radii=(f32(0.0), i64(2)), grid_angles=i64(1),
                                      n_random=i64(0), r_max=f32(1.0), seed=i64(0)).grid_radii) == 2
    assert sectorlab.WitnessSampling(i64(1), i64(1), i64(0), i64(0)).seed == 0
    assert sectorlab.bump(1 + 0j, f32(0.5)).kind == "bump"
    assert sectorlab.custom_function(abs, i64(2)).support_radius(0.5) is not None
