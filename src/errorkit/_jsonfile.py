"""Reading the JSON input formats: one parse and one schema check per file.

Python's ``json`` accepts ``NaN``, ``Infinity`` and ``-Infinity``, and
turns a literal such as ``1e309`` into infinity; JSON Schema's
``number`` lets all of them through. A non-finite value would then
travel into the results, so every number must fit a finite double
before the file reaches its schema. The same walk,
:func:`first_nonfinite`, checks the command line's results before they
are printed or written. A file that is not UTF-8 text is refused with
:func:`not_utf8`'s message, which the CSV reader shares, and
:func:`bundled_path` finds the bundled input files.

A token leaves the double range only as ``NaN`` or ``Infinity``, by an
exponent (which follows a digit) or with 309 or more integer digits. In
a text with no digit before ``e``/``E`` and no 309 digits in a row, only
those constants reach a hook; elsewhere every number token does.

The schema check is a small walker over the keywords the bundled
schemas use, with JSON Schema Draft 2020-12 meaning. It names the first
violation in walk order, worded as the Python JSON Schema validator
(4.26) words that keyword, except that a value or token longer than 24
characters is cut to its first 21 and ``...``: an error is one short line.
"""

from __future__ import annotations

import json
import sys
from importlib import resources
from pathlib import Path

_MAX = sys.float_info.max
# Every digit to "0" and "E" to "e": the shapes read_json scans for.
_SHAPE = bytes.maketrans(b"123456789E", b"000000000e")


def bundled_path(name: str) -> Path:
    """Return the filesystem path of a bundled data fixture."""
    return Path(str(resources.files("errorkit").joinpath("data", name)))


def shorten(text: str) -> str:
    """``text``, or its first 21 characters and ``...`` if over 24."""
    return text if len(text) <= 24 else text[:21] + "..."


def _brief(value) -> str:
    # 12 items print over 24 characters, so a longer list is cut as its first 12.
    return shorten(repr(value[:12] if isinstance(value, list) else value))


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


def _first(children) -> list | None:
    """The first violation among ``(key, schema, value)`` children, in
    their order, with its key appended."""
    for key, schema, value in children:
        found = _violation(schema, value)
        if found is not None:
            found.append(key)
            return found
    return None


def _additional_properties(arg, value, schema) -> list | None:
    if not isinstance(value, dict):
        return None
    known = schema.get("properties", ())
    if arg is not False:
        return _first((key, arg, child) for key, child in value.items() if key not in known)
    extra = [key for key in value if key not in known]
    if not extra:
        return None
    names = shorten(", ".join(map(repr, sorted(extra))))
    return ["Additional properties are not allowed (%s %s unexpected)" % (
        names, "was" if len(extra) == 1 else "were")]


def _too_short(arg, value) -> list:
    # minItems and minLength are worded alike.
    short = _brief(value)
    return [f"{short} should be non-empty" if arg == 1 else f"{short} is too short"]


# keyword -> check(argument, value, schema): None, or the violation as
# _violation gives it. A check passes a value it does not apply to, as
# JSON Schema does: "minimum" passes a string.
_KEYWORDS = {
    "$schema": lambda arg, v, s: None,
    "type": lambda arg, v, s: (
        None if _TYPES[arg](v) else [f"{_brief(v)} is not of type {arg!r}"]),
    # String members only, which is all the schemas list.
    "enum": lambda arg, v, s: (
        None if isinstance(v, str) and v in arg
        else [f"{_brief(v)} is not one of {arg!r}"]),
    "anyOf": lambda arg, v, s: (
        None if any(_violation(sub, v) is None for sub in arg)
        else [f"{_brief(v)} is not valid under any of the given schemas"]),
    "required": lambda arg, v, s: None if not isinstance(v, dict) else next(
        ([f"{k!r} is a required property"] for k in arg if k not in v), None),
    "properties": lambda arg, v, s: None if not isinstance(v, dict) else _first(
        (k, arg[k], x) for k, x in v.items() if k in arg),
    "additionalProperties": _additional_properties,
    "items": lambda arg, v, s: None if not isinstance(v, list) else _first(
        (i, arg, x) for i, x in enumerate(v)),
    "minItems": lambda arg, v, s: (
        None if not isinstance(v, list) or len(v) >= arg else _too_short(arg, v)),
    "maxItems": lambda arg, v, s: (
        None if not isinstance(v, list) or len(v) <= arg else [f"{_brief(v)} is too long"]),
    "minLength": lambda arg, v, s: (
        None if not isinstance(v, str) or len(v) >= arg else _too_short(arg, v)),
    "minimum": lambda arg, v, s: (
        None if not _number(v) or v >= arg
        else [f"{_brief(v)} is less than the minimum of {arg!r}"]),
    "exclusiveMinimum": lambda arg, v, s: (
        None if not _number(v) or v > arg
        else [f"{_brief(v)} is less than or equal to the minimum of {arg!r}"]),
}


def _violation(schema: dict, value) -> list | None:
    """The first violation of ``schema`` by ``value``, or None.

    A violation is a list: its message, then the keys of its location
    from the innermost out. Keywords are checked in the schema's order
    and children in the document's order, depth first.
    """
    for key, arg in schema.items():
        found = _KEYWORDS[key](arg, value, schema)
        if found is not None:
            return found
    return None


def read_json(path, schema: dict, error: type[Exception]):
    """Parse the JSON file at ``path`` and check it against ``schema``.

    A leading UTF-8 byte-order mark is skipped. A file that is not UTF-8
    text raises ``error`` with the message of :func:`not_utf8`; one that
    is not JSON raises ``error`` naming the file, the line and the
    column, and one nested deeper than ``json``'s recursion limit
    raises ``error`` naming the file. A number that is not a finite
    double raises ``error`` naming the file, the location and the
    token; values that parse are exactly what ``json.loads`` gives.
    One byte scan proves a text's numbers finite, or sends it to a hook
    on every token. A document that
    violates ``schema`` raises ``error("at <pointer>: <message>")`` for
    the first violation in walk order.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
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
    try:
        raw = json.loads(text, parse_constant=finite(float), **hooks)
    except json.JSONDecodeError as exc:
        raise error(f"{path.name}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise error(f"{path.name}: nested deeper than the parser allows") from None
    # A duplicate key can shadow a rejected token, so look in what parsed
    # and word the token that parsed to the value found there.
    found = first_nonfinite(raw) if bad else None
    if found is not None:
        token = next(token for token, value in bad if value is found[1])
        raise error(f"{path.name}: at {found[0]}: {shorten(token)} is not a finite number")

    violation = _violation(schema, raw)
    if violation is not None:
        message, *keys = violation
        raise error(f"at /{'/'.join(map(str, reversed(keys)))}: {message}")
    return raw
