"""Private: the bounds and the header-field reader both ends of the key flow share.

The key service and the key client each speak a small part of HTTP/1.1
(RFC 9112) over a buffered binary reader. A line may be at most
``MAX_LINE`` bytes and a head at most ``MAX_FIELDS`` fields, the bounds
``http.server`` and ``http.client`` keep.
"""

from __future__ import annotations

MAX_LINE = 65536
MAX_FIELDS = 100


def read_fields(reader) -> dict[bytes, bytes] | int | None:
    """Read header fields up to the blank line that ends them.

    Returns each field's first value, stripped, under its lowercased name.
    A line past ``MAX_LINE`` bytes or a field past ``MAX_FIELDS`` gives 431;
    a line that is no ``name: value`` field, an obsolete folded line
    included, gives 400. None means the stream ended first.
    """
    fields: dict[bytes, bytes] = {}
    for _ in range(MAX_FIELDS + 1):
        line = reader.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            return 431
        if line == b"\r\n" or line == b"\n":
            return fields
        if not line.endswith(b"\n"):
            return None
        name, colon, value = line.partition(b":")
        if not colon or not name or name.strip() != name:
            return 400
        fields.setdefault(name.lower(), value.strip())
    return 431
