"""Reading and writing graphs as edge-list text or graph6 bytes.

Edge list: one "u v" pair per line, 0-based indices, whitespace separated,
'#' starts a comment, blank lines ignored. The vertex count is inferred as
max index + 1, so isolated vertices are not representable; use graph6 when
that matters.

graph6: McKay's bit-packed format. The upper triangle of the adjacency
matrix is serialized column by column ((0,1), (0,2), (1,2), (0,3), ...),
packed into 6-bit groups offset by 63, after a 1-, 4-, or 8-byte vertex
count. Output is bit-exact with the reference tools. An input holds one
record; only blank lines may follow it.
"""

from __future__ import annotations

from .errors import GraphFormatError
from .graphs import Graph

EDGE_LIST = "edge-list"
GRAPH6 = "graph6"

_FORMAT_ALIASES = {
    "edge-list": EDGE_LIST,
    "edgelist": EDGE_LIST,
    "edge_list": EDGE_LIST,
    "graph6": GRAPH6,
    "g6": GRAPH6,
}

_G6_HEADER = b">>graph6<<"


def normalize_format(name: str) -> str:
    try:
        return _FORMAT_ALIASES[name.lower()]
    except KeyError:
        raise GraphFormatError(f"unknown graph format {name!r}") from None


def sniff_format(filename: str) -> str:
    """Guess a format from a file name; graph6 for .g6, edge list otherwise."""
    return GRAPH6 if filename.lower().endswith(".g6") else EDGE_LIST


def read_graph(data: bytes | str, format: str) -> Graph:
    fmt = normalize_format(format)
    if isinstance(data, str):
        data = data.encode("utf-8")
    if fmt == EDGE_LIST:
        return _read_edge_list(data)
    return _read_graph6(data)


def write_graph(g: Graph, format: str) -> bytes:
    fmt = normalize_format(format)
    if fmt == EDGE_LIST:
        return _write_edge_list(g)
    return _write_graph6(g)


# ---------------------------------------------------------------- edge list


def _read_edge_list(data: bytes) -> Graph:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError("edge list is not valid UTF-8", exc.start) from None
    edges: list[tuple[int, int]] = []
    max_index = -1
    offset = 0
    for line in text.splitlines(keepends=True):
        body = line.split("#", 1)[0]
        tokens = body.split()
        if tokens:
            if len(tokens) != 2:
                raise GraphFormatError(
                    f"expected two vertex indices, got {len(tokens)} tokens",
                    offset + _token_offset(line, body, tokens, 0),
                )
            pair = []
            for i, tok in enumerate(tokens):
                try:
                    value = int(tok)
                except ValueError:
                    raise GraphFormatError(
                        f"not an integer: {tok!r}",
                        offset + _token_offset(line, body, tokens, i),
                    ) from None
                if value < 0:
                    raise GraphFormatError(
                        f"vertex index {value} out of range",
                        offset + _token_offset(line, body, tokens, i),
                    )
                pair.append(value)
            if pair[0] == pair[1]:
                raise GraphFormatError(
                    f"self-loop at vertex {pair[0]}",
                    offset + _token_offset(line, body, tokens, 0),
                )
            edges.append((pair[0], pair[1]))
            max_index = max(max_index, pair[0], pair[1])
        offset += len(line.encode("utf-8"))
    return Graph(max_index + 1, edges)


def _token_offset(line: str, body: str, tokens: list[str], index: int) -> int:
    # byte offset of the token within its line
    pos = 0
    for i, tok in enumerate(tokens):
        pos = body.index(tok, pos)
        if i == index:
            return len(line[:pos].encode("utf-8"))
        pos += len(tok)
    return 0


def _write_edge_list(g: Graph) -> bytes:
    lines = [f"{u} {v}\n" for u, v in g.edges()]
    return "".join(lines).encode("utf-8")


# ------------------------------------------------------------------ graph6


def _read_graph6(data: bytes) -> Graph:
    base = 0
    if data.startswith(_G6_HEADER):
        base = len(_G6_HEADER)
        data = data[base:]
    first, _, rest = data.partition(b"\n")
    if rest.strip():
        raise GraphFormatError(
            "graph6 data after the first line (one graph per input)",
            base + len(data) - len(rest.lstrip()),
        )
    line = first.strip()
    if not line:
        raise GraphFormatError("empty graph6 input", base)
    n, pos = _read_g6_order(line, base)
    bits_needed = n * (n - 1) // 2
    bytes_needed = (bits_needed + 5) // 6
    body = line[pos:]
    if len(body) < bytes_needed:
        raise GraphFormatError(
            f"graph6 record truncated: need {bytes_needed} data bytes, "
            f"have {len(body)}",
            base + len(line),
        )
    if len(body) > bytes_needed:
        raise GraphFormatError("trailing bytes after graph6 record", base + pos + bytes_needed)
    edges = []
    bit = 0
    value = 0
    have = 0
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if have == 0:
                byte = body[idx]
                if not 63 <= byte <= 126:
                    raise GraphFormatError(
                        f"invalid graph6 byte {byte}", base + pos + idx
                    )
                value = byte - 63
                have = 6
                idx += 1
            have -= 1
            if value >> have & 1:
                edges.append((u, v))
    # padding bits must be zero
    if have and value & ((1 << have) - 1):
        raise GraphFormatError("nonzero padding bits", base + pos + idx - 1)
    return Graph(n, edges)


def _read_g6_order(line: bytes, base: int) -> tuple[int, int]:
    first = line[0]
    if not 63 <= first <= 126:
        raise GraphFormatError(f"invalid graph6 byte {first}", base)
    if first != 126:
        return first - 63, 1
    if len(line) >= 2 and line[1] == 126:
        count, width, pos = 6, 36, 2
    else:
        count, width, pos = 3, 18, 1
    if len(line) < pos + count:
        raise GraphFormatError("graph6 vertex count truncated", base + len(line))
    n = 0
    for i in range(count):
        byte = line[pos + i]
        if not 63 <= byte <= 126:
            raise GraphFormatError(f"invalid graph6 byte {byte}", base + pos + i)
        n = n << 6 | (byte - 63)
    return n, pos + count


def _write_graph6(g: Graph) -> bytes:
    n = g.vertex_count
    out = bytearray()
    if n <= 62:
        out.append(n + 63)
    elif n <= 258047:
        out.append(126)
        out.extend((n >> shift & 63) + 63 for shift in (12, 6, 0))
    elif n <= 68719476735:
        out.extend((126, 126))
        out.extend((n >> shift & 63) + 63 for shift in (30, 24, 18, 12, 6, 0))
    else:
        raise GraphFormatError(f"graph6 cannot encode {n} vertices")
    adjacency = g.adjacency
    value = 0
    have = 0
    for v in range(1, n):
        row = set(adjacency[v])
        for u in range(v):
            value = value << 1 | (1 if u in row else 0)
            have += 1
            if have == 6:
                out.append(value + 63)
                value = 0
                have = 0
    if have:
        out.append((value << (6 - have)) + 63)
    out.append(10)  # newline terminates the record
    return bytes(out)
