"""Value rules of the configuration fields: each field's domain sits in its
metadata (`ruled`), and `check` is the one function that tests them."""

import math
from collections import namedtuple
from dataclasses import field, fields

from .exceptions import ConfigError

# `text` states the domain in errors; `outside` has a value just outside each bound
Rule = namedtuple("Rule", "text ok outside")


def one_of(*choices) -> Rule:
    return Rule("one of " + ", ".join(map(repr, choices)), lambda v: v in choices, ("?",))


_BELOW_0 = math.nextafter(0.0, -1.0)
NON_NEGATIVE = Rule(">= 0", lambda v: v >= 0, (_BELOW_0,))
POSITIVE = Rule("> 0", lambda v: v > 0, (0.0,))
COUNT = Rule(">= 1", lambda v: v >= 1, (0,))
TWO_OR_MORE = Rule(">= 2", lambda v: v >= 2, (1,))
FRACTION = Rule("in [0, 1)", lambda v: 0 <= v < 1, (_BELOW_0, 1.0))
SHARE = Rule("in [0, 1]", lambda v: 0 <= v <= 1, (_BELOW_0, math.nextafter(1.0, 2.0)))
POWER_OF_TWO = Rule("a power of two >= 8", lambda v: v >= 8 and not v & (v - 1), (4, 12))
FINITE = Rule("finite", math.isfinite, (math.inf,))
BOOL = one_of(False, True)


def ruled(default, rule: Rule, view: str | None = None):
    """A field that must satisfy `rule`. A run-level key also names its view,
    the part of a run that reads it: model, crop, train or scene."""
    return field(default=default, metadata={"rule": rule, "view": view})


def check(obj):
    """Raise a ConfigError naming the first field of the dataclass `obj`
    that is a non-finite float or breaks its rule."""
    for f in fields(obj):
        value, rule = getattr(obj, f.name), f.metadata.get("rule")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"key '{f.name}' must be finite, got {value}")
        if rule:
            require(f.name, value, rule)


def require(name: str, value, rule: Rule):
    """Raise a ConfigError naming `name` unless `value` satisfies `rule`."""
    if not rule.ok(value):
        raise ConfigError(f"{name} must be {rule.text}, got {value!r}")
