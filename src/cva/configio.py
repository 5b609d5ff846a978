"""Plain-text key=value config files, JSON and text input helpers, and
the error every parser of an input file raises for a file it cannot
use."""

from __future__ import annotations

import json
import math
from typing import Callable, Iterable, Iterator, Optional


class InputError(ValueError):
    """An input file that cannot be used; reads `path[:line]: reason`."""

    def __init__(self, path, reason: str, line: Optional[int] = None):
        where = f"{path}:{line}" if line is not None else f"{path}"
        super().__init__(f"{where}: {reason}")
        self.path = path


def not_utf8(line: str) -> Optional[str]:
    """Why `line`, read with errors="surrogateescape", is not UTF-8
    ("not UTF-8: byte 0x.. at column N", its first undecodable byte);
    None when it is."""
    if line.isascii():
        return None
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(exc.object[exc.start]) - 0xDC00
        return f"not UTF-8: byte {byte:#04x} at column {exc.start + 1}"
    return None


def utf8_lines(path, fh: Iterable[str]) -> Iterator[str]:
    """The lines of `fh`, a text file opened with
    errors="surrogateescape"; InputError at the first line holding bytes
    that are not UTF-8."""
    for lineno, line in enumerate(fh, start=1):
        reason = not_utf8(line)
        if reason is not None:
            raise InputError(path, reason, lineno)
        yield line


def read_json(path):
    """The JSON value in `path`; InputError, with the line, for a file
    that is not UTF-8 or not JSON, and without it for JSON nested too
    deeply to read."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        text = "".join(utf8_lines(path, fh))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(path, f"invalid JSON: {exc.msg} at column "
                               f"{exc.colno}", exc.lineno) from None
    except RecursionError:
        raise InputError(path, "invalid JSON: nested too deeply") from None


def _json_kind(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {dict: "object", list: "array", str: "string",
            type(None): "null"}.get(type(value), type(value).__name__)


def is_number(value) -> bool:
    """A finite JSON number. `json.loads` reads `NaN`, `Infinity` and an
    overflowing `1e400` as floats; an integer beyond the float range is
    not finite either."""
    if _json_kind(value) != "number":
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_json_object(path, obj, required: dict[str, tuple[Callable, str]],
                      optional: Optional[dict[str, tuple[Callable, str]]]
                      = None) -> None:
    """InputError unless `obj` is a JSON object holding every `required`
    key; each key present maps to (check, what the check expects)."""
    if not isinstance(obj, dict):
        raise InputError(path, f"expected a JSON object, got "
                               f"{_json_kind(obj)}")
    for key in required:
        if key not in obj:
            raise InputError(path, f"missing key {key!r}")
    for key, (check, expected) in {**required, **(optional or {})}.items():
        if key in obj and not check(obj[key]):
            raise InputError(path, f"{key}: expected {expected}")


def write_json(path, obj) -> None:
    """Write `obj` as indented JSON with sorted keys and a final newline,
    in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def finite_float(text: str) -> float:
    """float(text), which must be finite: a config or option value."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def parse_key_values(path) -> dict[str, str]:
    """Read key=value lines; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(utf8_lines(path, fh), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(path, "expected key=value", lineno)
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def parse_typed(path, types: dict) -> dict:
    """`parse_key_values`, each value converted by `types[key]`; `bool`
    goes through `parse_bool`. An unknown key or a value that does not
    convert raises InputError."""
    out = {}
    for key, value in parse_key_values(path).items():
        if key not in types:
            raise InputError(path, f"unknown config key: {key}")
        caster = types[key]
        try:
            out[key] = parse_bool(value) if caster is bool \
                else caster(value)
        except ValueError as exc:
            raise InputError(path, f"{key}: {exc}") from None
    return out
