"""Reading the JSON input formats: one read and one schema check per file.

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
exponent (which follows a digit) or with 309 or more integer digits. A
text with no ``N`` or ``I``, no digit before ``e``/``E`` and no 309
digits in a row holds no such token and is parsed by plain
``json.loads``, which hooks nothing; any other text is parsed once with
a hook on every number token.

The schema check is a tree of checkers that :func:`compile_schema`
builds once from a schema, over the keywords the bundled schemas use,
with JSON Schema Draft 2020-12 meaning. It names the first violation in
walk order, worded as the Python JSON Schema validator (4.26) words
that keyword, except that a value or token longer than 24 characters
is cut to its first 21 and ``...``, and a pointer longer than 48 to its
first 22, ``...`` and its last 23: an error is one short line.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
from importlib import resources
from pathlib import Path

_MAX = sys.float_info.max
# Every digit to "0", "E" to "e" and "I" to "N": the shapes read_json scans for.
_SHAPE = bytes.maketrans(b"123456789EI", b"000000000eN")


def bundled_path(name: str) -> Path:
    """Return the filesystem path of a bundled data fixture."""
    return Path(str(resources.files("errorkit").joinpath("data", name)))


def shorten(text: str) -> str:
    """``text``, or its first 21 characters and ``...`` if over 24."""
    return text if len(text) <= 24 else text[:21] + "..."


def _cut_pointer(pointer: str) -> str:
    return pointer if len(pointer) <= 48 else pointer[:22] + "..." + pointer[-23:]


def gc_paused(loader):
    """``loader`` with the cyclic garbage collector paused: it builds no cycles."""
    @functools.wraps(loader)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return loader(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


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


def _leaf(ok, message: str):
    """The checker that passes what ``ok`` accepts and words anything
    else as ``<value> <message>``."""
    return lambda value: None if ok(value) else [f"{_brief(value)} {message}"]


def _children(kind, pairs, checks: dict, default):
    """The checker of a ``kind`` value's children: the first violation
    among its ``pairs``, in their order, each (key, child) checked by
    ``checks[key]``, else ``default``, unless that is None."""
    def check(value):
        if isinstance(value, kind):
            for key, child in pairs(value):
                checker = checks.get(key, default)
                if checker is not None:
                    found = checker(child)
                    if found is not None:
                        found.append(key)
                        return found
        return None
    return check


def _any_of(arg, schema):
    branches = [compile_schema(sub) for sub in arg]
    return _leaf(lambda v: any(branch(v) is None for branch in branches),
                 "is not valid under any of the given schemas")


def _additional_properties(arg, schema):
    known = schema.get("properties", {})
    if arg is not False:
        return _children(dict, dict.items, dict.fromkeys(known), compile_schema(arg))

    def refuse(value):
        extra = [key for key in value if key not in known] if isinstance(value, dict) else ()
        if not extra:
            return None
        names = shorten(", ".join(map(repr, sorted(extra))))
        return ["Additional properties are not allowed (%s %s unexpected)" % (
            names, "was" if len(extra) == 1 else "were")]
    return refuse


def _too_short(arg) -> str:
    # minItems and minLength are worded alike.
    return "should be non-empty" if arg == 1 else "is too short"


# keyword -> compile(argument, schema): the keyword's checker, or None
# for a keyword that checks nothing. A checker passes a value it does
# not apply to, as JSON Schema does: "minimum" passes a string.
_KEYWORDS = {
    "$schema": lambda arg, schema: None,
    "type": lambda arg, schema: _leaf(_TYPES[arg], f"is not of type {arg!r}"),
    # String members only, which is all the schemas list.
    "enum": lambda arg, schema: _leaf(
        lambda v: isinstance(v, str) and v in arg, f"is not one of {arg!r}"),
    "anyOf": _any_of,
    "required": lambda arg, schema: lambda v: None if not isinstance(v, dict) else next(
        ([f"{k!r} is a required property"] for k in arg if k not in v), None),
    "properties": lambda arg, schema: _children(
        dict, dict.items, {key: compile_schema(sub) for key, sub in arg.items()}, None),
    "additionalProperties": _additional_properties,
    "items": lambda arg, schema: _children(list, enumerate, {}, compile_schema(arg)),
    "minItems": lambda arg, schema: _leaf(
        lambda v: not isinstance(v, list) or len(v) >= arg, _too_short(arg)),
    "maxItems": lambda arg, schema: _leaf(
        lambda v: not isinstance(v, list) or len(v) <= arg, "is too long"),
    "minLength": lambda arg, schema: _leaf(
        lambda v: not isinstance(v, str) or len(v) >= arg, _too_short(arg)),
    "minimum": lambda arg, schema: _leaf(
        lambda v: not _number(v) or v >= arg, f"is less than the minimum of {arg!r}"),
    "exclusiveMinimum": lambda arg, schema: _leaf(
        lambda v: not _number(v) or v > arg,
        f"is less than or equal to the minimum of {arg!r}"),
}


def compile_schema(schema: dict):
    """The checker of ``schema``: a function that returns None for a
    value that meets it, else the first violation, a list of its message
    and then the keys of its location from the innermost out. Keywords
    are checked in the schema's order and children in the document's
    order, depth first."""
    checks = [check for key, arg in schema.items()
              if (check := _KEYWORDS[key](arg, schema)) is not None]
    if len(checks) == 1:
        return checks[0]

    def check_all(value):
        for check in checks:
            found = check(value)
            if found is not None:
                return found
        return None
    return check_all


def read_json(path, check, error: type[Exception]):
    """Parse the JSON file at ``path`` and check it with ``check``, a
    :func:`compile_schema` checker.

    The file is read once, as bytes, and decoded as UTF-8: a leading
    byte-order mark is skipped, and ``\\r\\n`` and a lone ``\\r`` read
    as ``\\n``, as in a text-mode read. A file that is not UTF-8 text,
    one or two bytes of a byte-order mark among them, raises ``error``
    with the message of :func:`not_utf8`, as the CSV reader does; one
    that is not JSON raises ``error`` naming the file, the line and the
    column, and one nested deeper than ``json``'s recursion limit raises
    ``error`` naming the file. A number that is not a finite double
    raises ``error`` naming the file, the location and the token; values
    that parse are exactly what ``json.loads`` gives. One scan of the
    bytes proves a text's numbers finite, or sends it to a hook on every
    token. A document that violates the schema raises ``error("at
    <pointer>: <message>")`` for the first violation in walk order.
    """
    with open(path, "rb") as file:
        data = file.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(not_utf8(Path(path), exc)) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    bad: list[tuple[str, object]] = []

    def finite(parse):
        # One call per number token: the bounds are default arguments.
        def checked(token: str, lo=-_MAX, hi=_MAX, keep=bad.append):
            value = parse(token)
            if not lo <= value <= hi:
                keep((token, value))
            return value

        return checked

    # Unhooked numbers are parsed in C, which is safe where none can
    # overflow. The bytes hold the same digits, "e"s, "N"s and "I"s as the
    # text; outside strings only NaN and Infinity hold an N or an I.
    shape = data.translate(_SHAPE)
    try:
        if b"0e" in shape or b"N" in shape or b"0" * 309 in shape:
            # Over 309 digits is beyond a double; float() has no digit limit.
            raw = json.loads(text, parse_constant=finite(float), parse_float=finite(float),
                             parse_int=finite(lambda t: int(t) if len(t.lstrip("-")) <= 309
                                              else float(t)))
        else:
            raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(
            f"{Path(path).name}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise error(f"{Path(path).name}: nested deeper than the parser allows") from None
    # A duplicate key can shadow a rejected token, so look in what parsed
    # and word the token that parsed to the value found there.
    found = first_nonfinite(raw) if bad else None
    if found is not None:
        token = next(token for token, value in bad if value is found[1])
        raise error(f"{Path(path).name}: at {_cut_pointer(found[0])}: "
                    f"{shorten(token)} is not a finite number")

    violation = check(raw)
    if violation is not None:
        message, *keys = violation
        raise error(f"at {_cut_pointer('/' + '/'.join(map(str, reversed(keys))))}: {message}")
    return raw
