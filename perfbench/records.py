"""Parsers for what the load generator records: its reply records and
the raw Server-Sent Events stream of a watch."""

import json
import re
from dataclasses import dataclass


@dataclass(slots=True)
class Reply:
    conn: int
    op: int
    due_us: float
    sent_us: float
    ttfb_us: float  # 0 unless the op was traced
    done_us: float
    status: int
    cache: str  # X-Moara-Cache header, "-" when absent
    body: str


@dataclass
class Frame:
    """One SSE frame: the time its terminating blank line arrived, its
    event name ("message" unless an `event:` line says otherwise) and its
    joined `data:` lines. Comment-only frames (keepalives) have data None."""
    t_us: float
    event: str
    data: object


def unescape(field):
    out, i = [], 0
    while i < len(field):
        ch = field[i]
        if ch == "\\" and i + 1 < len(field):
            out.append({"n": "\n", "r": "\r", "t": "\t", "\\": "\\"}.get(field[i + 1], field[i + 1]))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def iter_loadgen(path):
    """Yields ("r", Reply), ("c", (time, text)), ("m", [replies, VmHWM kB
    per process...]) and ("end", last reply µs) from a loadgen output
    file, expanding repeated bodies."""
    last_body = {}
    with open(path) as f:
        for line in f:
            fld = line.rstrip("\n").split("\t")
            if fld[0] == "r":
                conn, op = int(fld[1]), int(fld[2])
                body = last_body[(conn, op)] if fld[9] == "=" else unescape(fld[9])
                last_body[(conn, op)] = body
                yield "r", Reply(conn, op, float(fld[3]), float(fld[4]), float(fld[5]),
                                 float(fld[6]), int(fld[7]), fld[8], body)
            elif fld[0] == "c":
                yield "c", (float(fld[1]), unescape(fld[2]))
            elif fld[0] == "m":
                yield "m", [int(x) for x in fld[1:]]
            elif fld[0] == "end":
                yield "end", float(fld[1])


def parse_loadgen(path):
    """Returns (replies, chunks, last_reply_us) from a loadgen output file."""
    out = {"r": [], "c": [], "m": [], "end": [0]}
    for kind, item in iter_loadgen(path):
        out[kind].append(item)
    return out["r"], out["c"], out["end"][-1]


def parse_sse(chunks):
    """Splits timed raw chunks of an SSE response into frames. The HTTP
    response head before the first blank line is skipped; a frame is
    stamped with the arrival time of the chunk that completed it."""
    frames, buf, head_done = [], "", False
    for t_us, text in chunks:
        buf += text.replace("\r\n", "\n")
        if not head_done:
            if "\n\n" not in buf:
                continue
            buf = buf.split("\n\n", 1)[1]
            head_done = True
        while "\n\n" in buf:
            block, buf = buf.split("\n\n", 1)
            event, data = "message", []
            for line in block.split("\n"):
                if line.startswith(":"):
                    continue
                name, _, value = line.partition(":")
                value = value[1:] if value.startswith(" ") else value
                if name == "event":
                    event = value
                elif name == "data":
                    data.append(value)
            frames.append(Frame(t_us, event, "\n".join(data) if data else None))
    return frames


_ATTRIBUTED = re.compile(r"^(\S+) at @([0-9a-f]+)$")


def result_of(body):
    """The `result` string of a query or watch JSON body, and whether the
    answer was complete."""
    doc = json.loads(body)
    return doc["result"], bool(doc.get("complete", False))


def split_attributed(result):
    """'17 at @a' -> (17.0, 10); a plain number -> (value, None);
    '(empty)' -> (None, None)."""
    if result == "(empty)":
        return None, None
    m = _ATTRIBUTED.match(result)
    if m:
        return float(m.group(1)), int(m.group(2), 16)
    return float(result), None
