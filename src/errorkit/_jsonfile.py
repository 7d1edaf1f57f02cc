"""Reading the JSON input formats: one parse and one schema check per file.

Python's ``json`` accepts ``NaN``, ``Infinity`` and ``-Infinity``, and
turns a literal such as ``1e309`` into infinity; JSON Schema's
``number`` lets all of them through. A non-finite value would then
travel into the results, so every number must fit a finite double
before the file reaches its schema. The same walk,
:func:`first_nonfinite`, checks the command line's results before they
are printed or written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_MAX = sys.float_info.max

# id(schema) -> (schema, compiled validator); holding the schema keeps its id.
_validators: dict[int, tuple] = {}


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


def _validator(schema: dict):
    """``schema`` compiled on first use; jsonschema is imported then."""
    entry = _validators.get(id(schema))
    if entry is None:
        from jsonschema import Draft202012Validator

        entry = _validators[id(schema)] = (schema, Draft202012Validator(schema))
    return entry[1]


def read_json(path, schema: dict, error: type[Exception]):
    """Parse the JSON file at ``path`` and check it against ``schema``.

    A number that is not a finite double raises ``error`` naming the
    file, the location and the token; values that parse are exactly
    what ``json.loads`` gives. A schema violation raises
    ``jsonschema.ValidationError``, chosen by ``best_match`` as
    ``jsonschema.validate`` does.
    """
    path = Path(path)
    bad: list[str] = []

    def finite(parse):
        # One call per number token: the bounds are default arguments.
        def checked(token: str, lo=-_MAX, hi=_MAX, keep=bad.append):
            value = parse(token)
            if not lo <= value <= hi:
                keep(token)
            return value

        return checked

    raw = json.loads(
        path.read_text(encoding="utf-8"),
        parse_constant=finite(float),
        parse_float=finite(float),
        parse_int=finite(int),
    )
    # A duplicate key can shadow a rejected token, so look in what parsed.
    found = first_nonfinite(raw) if bad else None
    if found is not None:
        token = bad[0] if len(bad[0]) <= 24 else bad[0][:21] + "..."
        raise error(f"{path.name}: at {found[0]}: {token} is not a finite number")

    from jsonschema.exceptions import best_match

    violation = best_match(_validator(schema).iter_errors(raw))
    if violation is not None:
        raise violation
    return raw
