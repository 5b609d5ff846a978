"""Plain-text key=value config files, and the error every parser of an
input file raises for a file it cannot use."""

from __future__ import annotations

from typing import Optional


class InputError(ValueError):
    """An input file that cannot be used; reads `path[:line]: reason`."""

    def __init__(self, path, reason: str, line: Optional[int] = None):
        where = f"{path}:{line}" if line is not None else f"{path}"
        super().__init__(f"{where}: {reason}")
        self.path = path


def parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_key_values(path) -> dict[str, str]:
    """Read key=value lines; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
