"""The dump row reader that `cva.ingest._iter_rows` replaced.

Each line is read on its own by `ET.fromstring`, with no expat shortcut
and no blocks of lines. Kept as the reference that the block reader's
rows, rejects and line numbers must match: `reference_rows`.
"""

import xml.etree.ElementTree as ET

from cva import ingest


def reference_rows(path, rejects, kind):
    """The dump row reader built on `ET.fromstring` alone: what
    `ingest._iter_rows` must yield and reject, line for line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(exc.object[exc.start]) - 0xDC00
                rejects.add(lineno, f"{kind}: not UTF-8: byte {byte:#04x} "
                                    f"at column {exc.start + 1}")
                continue
            stripped = line.strip()
            if "<row" not in stripped:
                continue
            try:
                elem = ET.fromstring(stripped)
            except ET.ParseError as exc:
                rejects.add(lineno, f"{kind}: malformed XML row ({exc})")
                continue
            if elem.tag != "row":
                rejects.add(lineno, f"{kind}: unexpected element "
                                    f"<{elem.tag}>")
                continue
            attrs = elem.attrib
            try:
                for name, convert in ingest._CONVERTERS[kind].items():
                    if name in attrs:
                        attrs[name] = convert(attrs[name])
            except ValueError as exc:
                rejects.add(lineno, f"{kind}: bad value ({exc})")
                continue
            yield lineno, attrs
