"""Reading the JSON input formats: one parse and one schema check per file.

Python's ``json`` accepts ``NaN``, ``Infinity`` and ``-Infinity``, and
turns a literal such as ``1e309`` into infinity; JSON Schema's
``number`` lets all of them through. A non-finite value would then
travel into the results, so every number must fit a finite double
before the file reaches its schema. The same walk,
:func:`first_nonfinite`, checks the command line's results before they
are printed or written. A file that is not UTF-8 text is refused with
:func:`not_utf8`'s message, which the CSV reader shares.

A token leaves the double range only as ``NaN`` or ``Infinity``, by an
exponent (which follows a digit) or with 309 or more integer digits. In
a text with no digit before ``e``/``E`` and no 309 digits in a row, only
those constants reach a hook; elsewhere every number token does.

The schema check is a small walker over the keywords the bundled
schemas use, with JSON Schema Draft 2020-12 meaning, so a valid file
never imports ``jsonschema``. A file the walker rejects goes to
``jsonschema``, which words the rejection; the walker only decides
that there is one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_MAX = sys.float_info.max
# Every digit to "0" and "E" to "e": the shapes read_json scans for.
_SHAPE = bytes.maketrans(b"123456789E", b"000000000e")

# id(schema) -> (schema, compiled validator) and id(schema) -> schema once
# its keywords are checked; holding the schema keeps its id.
_validators: dict[int, tuple] = {}
_known: dict[int, dict] = {}


def _is_finite(value) -> bool:
    # Exact for ints of any size as well as floats; false for NaN.
    return -_MAX <= value <= _MAX


def first_nonfinite(node, pointer: str = "") -> tuple[str, object] | None:
    """(JSON pointer, value) of the first int or float in document order,
    through dicts, lists and tuples, that is NaN or outside the double range."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, (list, tuple)):
        items = enumerate(node)
    elif isinstance(node, (int, float)) and not _is_finite(node):
        return pointer or "/", node
    else:
        return None
    for key, child in items:
        found = first_nonfinite(child, f"{pointer}/{key}")
        if found is not None:
            return found
    return None


def not_utf8(path, exc: UnicodeDecodeError) -> str:
    """The message for an input file that is not UTF-8 text: its path,
    the line of the first bad byte (counting ``\\n`` breaks, as ``json``
    does) and that byte."""
    line = exc.object.count(b"\n", 0, exc.start) + 1
    return f"{path}: not UTF-8 text at line {line} (byte 0x{exc.object[exc.start]:02x})"


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _number,
    # Draft 2020-12: 1.0 is an integer; a bool is neither kind of number.
    "integer": lambda v: _number(v) and (type(v) is not float or v.is_integer()),
}

# keyword -> test(argument, value, schema). A test passes a value it does
# not apply to, as JSON Schema does: "minimum" passes a string.
_KEYWORDS = {
    "$schema": lambda arg, v, s: True,
    "type": lambda arg, v, s: _TYPES[arg](v),
    # String members only, which is all the schemas list; any other value
    # is left to jsonschema.
    "enum": lambda arg, v, s: isinstance(v, str) and v in arg,
    "anyOf": lambda arg, v, s: any(_accepts(sub, v) for sub in arg),
    "required": lambda arg, v, s: not isinstance(v, dict) or all(k in v for k in arg),
    "properties": lambda arg, v, s: not isinstance(v, dict) or all(
        _accepts(arg[k], x) for k, x in v.items() if k in arg),
    "additionalProperties": lambda arg, v, s: not isinstance(v, dict) or all(
        _accepts(arg, x) for k, x in v.items() if k not in s.get("properties", ())),
    "items": lambda arg, v, s: not isinstance(v, list) or all(_accepts(arg, x) for x in v),
    "minItems": lambda arg, v, s: not isinstance(v, list) or len(v) >= arg,
    "maxItems": lambda arg, v, s: not isinstance(v, list) or len(v) <= arg,
    "minLength": lambda arg, v, s: not isinstance(v, str) or len(v) >= arg,
    "minimum": lambda arg, v, s: not _number(v) or v >= arg,
    "exclusiveMinimum": lambda arg, v, s: not _number(v) or v > arg,
}


def _accepts(schema, value) -> bool:
    """Whether ``value`` is valid against ``schema``; a bool is a schema."""
    if isinstance(schema, bool):
        return schema
    return all(_KEYWORDS[key](arg, value, schema) for key, arg in schema.items())


def _check_keywords(schema) -> None:
    """Raise NotImplementedError if ``schema``, or a schema inside it, has
    a keyword :func:`_accepts` does not know."""
    if isinstance(schema, bool):
        return
    unknown = sorted(schema.keys() - _KEYWORDS.keys())
    if unknown:
        raise NotImplementedError(
            f"schema keyword {unknown[0]!r} is not known to the built-in checker"
        )
    for sub in (*schema.get("properties", {}).values(), *schema.get("anyOf", ()),
                *(schema[key] for key in ("items", "additionalProperties") if key in schema)):
        _check_keywords(sub)


def _validator(schema: dict):
    """``schema`` compiled on first use; jsonschema is imported then."""
    entry = _validators.get(id(schema))
    if entry is None:
        from jsonschema import Draft202012Validator

        entry = _validators[id(schema)] = (schema, Draft202012Validator(schema))
    return entry[1]


def read_json(path, schema: dict, error: type[Exception]):
    """Parse the JSON file at ``path`` and check it against ``schema``.

    A file that is not UTF-8 text raises ``error`` with the message of
    :func:`not_utf8`. A number that is not a finite double raises ``error`` naming the
    file, the location and the token; values that parse are exactly
    what ``json.loads`` gives. One byte scan proves a text's numbers
    finite, or sends it to a hook on every token. A file the built-in
    checker accepts is returned without importing ``jsonschema``.
    Otherwise ``jsonschema`` words the rejection:
    ``jsonschema.ValidationError``, chosen by ``best_match`` as
    ``jsonschema.validate`` does.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(not_utf8(path, exc)) from None
    bad: list[tuple[str, object]] = []

    def finite(parse):
        # One call per number token: the bounds are default arguments.
        def checked(token: str, lo=-_MAX, hi=_MAX, keep=bad.append):
            value = parse(token)
            if not lo <= value <= hi:
                keep((token, value))
            return value

        return checked

    # Unhooked numbers are parsed in C, which is safe where none can overflow.
    shape, hooks = text.encode().translate(_SHAPE), {}
    if b"0e" in shape or b"0" * 309 in shape:
        # Over 309 digits is beyond a double; float() has no digit limit.
        hooks = {"parse_float": finite(float), "parse_int": finite(
            lambda t: int(t) if len(t.lstrip("-")) <= 309 else float(t))}
    raw = json.loads(text, parse_constant=finite(float), **hooks)
    # A duplicate key can shadow a rejected token, so look in what parsed
    # and word the token that parsed to the value found there.
    found = first_nonfinite(raw) if bad else None
    if found is not None:
        token = next(token for token, value in bad if value is found[1])
        token = token if len(token) <= 24 else token[:21] + "..."
        raise error(f"{path.name}: at {found[0]}: {token} is not a finite number")

    if id(schema) not in _known:
        _check_keywords(schema)
        _known[id(schema)] = schema
    if _accepts(schema, raw):
        return raw
    from jsonschema.exceptions import best_match

    violation = best_match(_validator(schema).iter_errors(raw))
    if violation is not None:
        raise violation
    return raw
