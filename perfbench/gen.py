"""Seeded inputs for the real-cluster workloads, and the oracle that
knows every answer.

The generator assigns every attribute of every daemon's node, so for any
query it can compute the exact answer from its own table. Nothing here
talks to the system under test.
"""

import random
from dataclasses import dataclass, field

from records import split_attributed

NODES = 5
SERVICES = ("a", "b", "c")
MEMBER, OUTSIDER = "w", "x"


def fmt(v):
    """Query-text rendering of a literal."""
    if isinstance(v, str):
        return f"'{v}'"
    return repr(v)


def cpu_value(rng):
    """A float in (0, 100) with at most four decimals, e.g. 57.3019."""
    return rng.randrange(1, 1_000_000) / 10_000.0


@dataclass
class Row:
    Svc: str
    CPU: float
    Mem: int
    Load: int
    Grp: str
    Seq: int

    def attrs_arg(self):
        """The `--attrs` value that gives a daemon's node this row."""
        return ",".join(f"{k}={getattr(self, k)}" for k in ("Svc", "CPU", "Mem", "Load", "Grp", "Seq"))


def node_rows(seed):
    rng = random.Random(seed * 7919 + 1)
    members = rng.sample(range(NODES), 3)
    return [Row(Svc=rng.choice(SERVICES), CPU=cpu_value(rng), Mem=rng.randint(1, 64),
                Load=rng.randint(1, 100), Grp=MEMBER if i in members else OUTSIDER,
                Seq=i + 1) for i in range(NODES)]


# --- predicates and queries -------------------------------------------------

def cmp(attr, op, value):
    return ("cmp", attr, op, value)


def both(a, b):
    return ("and", a, b)


def either(a, b):
    return ("or", a, b)


_OPS = {"<": lambda x, y: x < y, ">": lambda x, y: x > y, "=": lambda x, y: x == y}


def holds(pred, row):
    kind = pred[0]
    if kind == "cmp":
        return _OPS[pred[2]](getattr(row, pred[1]), pred[3])
    if kind == "and":
        return holds(pred[1], row) and holds(pred[2], row)
    return holds(pred[1], row) or holds(pred[2], row)


def pred_text(pred):
    kind = pred[0]
    if kind == "cmp":
        return f"{pred[1]} {pred[2]} {fmt(pred[3])}"
    return f"{pred_text(pred[1])} {kind.upper()} {pred_text(pred[2])}"


@dataclass(frozen=True)
class Query:
    agg: str  # count | sum | max | min
    attr: str  # None for count(*)
    pred: tuple

    def text(self):
        head = "count(*)" if self.agg == "count" else f"{self.agg}({self.attr})"
        return f"SELECT {head} WHERE {pred_text(self.pred)}"


def answer_ok(query, rows, node_ids, result):
    """Whether `result` (the daemon's rendered aggregate) is the exact
    answer over `rows`; node_ids[i] is the protocol id of row i's node."""
    members = [i for i, r in enumerate(rows) if holds(query.pred, r)]
    if query.agg == "count":
        return result == str(len(members))
    if query.agg == "sum":
        return result == str(sum(getattr(rows[i], query.attr) for i in members))
    if not members:
        return result == "(empty)"
    try:
        value, node = split_attributed(result)
    except ValueError:
        return False
    values = [getattr(rows[i], query.attr) for i in members]
    want = max(values) if query.agg == "max" else min(values)
    holders = {node_ids[i] for i in members if getattr(rows[i], query.attr) == want}
    return value == want and node in holders


# --- workload inputs ----------------------------------------------------------

def adhoc_queries(seed, count):
    """`count` distinct ad-hoc queries mixing simple and composite
    predicates with random thresholds, so no text repeats."""
    rng = random.Random(seed * 7919 + 2)
    seen, out = set(), []
    aggs = (("count", None), ("max", "CPU"), ("min", "CPU"), ("sum", "Mem"))
    while len(out) < count:
        t = cpu_value(rng)
        form = rng.randrange(4)
        if form == 0:
            pred = cmp("CPU", "<", t)
        elif form == 1:
            pred = both(cmp("Svc", "=", rng.choice(SERVICES)), cmp("CPU", "<", t))
        elif form == 2:
            pred = either(cmp("Svc", "=", rng.choice(SERVICES)), cmp("CPU", ">", t))
        else:
            pred = both(cmp("Mem", ">", rng.randint(0, 64)), cmp("CPU", "<", t))
        q = Query(*rng.choice(aggs), pred)
        if q.text() not in seen:
            seen.add(q.text())
            out.append(q)
    return out


def dashboard_panels(seed):
    """Eight fixed panel queries; the seed picks their thresholds."""
    rng = random.Random(seed * 7919 + 3)
    return [
        Query("count", None, cmp("Svc", "=", "a")),
        Query("max", "CPU", cmp("Svc", "=", "b")),
        Query("min", "CPU", either(cmp("Svc", "=", "c"), cmp("Mem", ">", rng.randint(8, 56)))),
        Query("sum", "Mem", both(cmp("Svc", "=", "a"), cmp("CPU", "<", cpu_value(rng)))),
        Query("count", None, cmp("CPU", ">", cpu_value(rng))),
        Query("max", "Mem", cmp("Svc", "=", "c")),
        Query("sum", "Load", cmp("Mem", "<", rng.randint(8, 56))),
        Query("count", None, both(cmp("Svc", "=", "b"), cmp("Mem", ">", rng.randint(1, 32)))),
    ]


WATCH_QUERY = Query("max", "Seq", cmp("Grp", "=", MEMBER))
CHURN_PANELS = [
    WATCH_QUERY,
    Query("count", None, cmp("Grp", "=", MEMBER)),
    Query("sum", "Load", cmp("Grp", "=", MEMBER)),
    Query("count", None, cmp("Svc", "=", "a")),
]


@dataclass
class ChurnOp:
    due_us: int
    target: int  # row index of the daemon the op is sent to
    kind: str  # write | read
    body: str = ""  # form body of a write
    query: Query = None  # panel of a read
    state: int = 0  # writes: index of the state this write creates


@dataclass
class Churn:
    ops: list
    states: list = field(default_factory=list)  # rows after 0, 1, 2, ... writes
    # A write that sets several attributes is not assumed atomic: for the
    # write creating state j, partials[j] holds the rows with only one of
    # its attributes applied.
    partials: dict = field(default_factory=dict)

    def between(self, lo, hi):
        """Every row state a reader may see from state lo through state hi."""
        out = [self.states[j] for j in range(hi, lo - 1, -1)]
        return out + [p for j in range(lo + 1, hi + 1) for p in self.partials.get(j, [])]

    def watch_value(self, j):
        """(max Seq, row index holding it) of the watched group in state j."""
        return group_max(self.states[j])


def group_max(rows):
    return max((r.Seq, i) for i, r in enumerate(rows) if r.Grp == MEMBER)


def churn_schedule(seed, rows, seconds, ops_per_s, epoch_s, start_us):
    """An open-loop schedule of alternating writes and reads, arriving as
    a Poisson process at `ops_per_s` (so arrivals do not lock onto any
    periodic timer in the daemons). The target daemon changes every
    epoch. Every write sets a fresh, globally increasing `Seq` on the
    target's node, joining the watched group if the node is outside it.
    The first write of an epoch instead takes the node out of the group
    when it is a member that does not hold the group's maximum and others
    remain. So the watched `max(Seq)` only rises, each rise is one write,
    and group size churns."""
    rng = random.Random(seed * 7919 + 4)
    order = list(range(NODES))
    rng.shuffle(order)
    cur = [Row(**vars(r)) for r in rows]
    plan = Churn(ops=[], states=[[Row(**vars(r)) for r in cur]])
    next_seq = 100
    last_epoch, reads = -1, 0
    offset_us, i = 0.0, 0
    while True:
        offset_us += rng.expovariate(ops_per_s) * 1e6
        if offset_us >= seconds * 1e6:
            break
        due = int(start_us + offset_us)
        epoch = int(offset_us / (epoch_s * 1e6))
        target = order[epoch % NODES]
        i += 1
        if i % 2 == 0:
            plan.ops.append(ChurnOp(due, target, "read", query=CHURN_PANELS[reads % len(CHURN_PANELS)]))
            reads += 1
            continue
        node = cur[target]
        members = [j for j, r in enumerate(cur) if r.Grp == MEMBER]
        holder = max(members, key=lambda j: cur[j].Seq)
        if epoch != last_epoch and node.Grp == MEMBER and target != holder and len(members) > 1:
            node.Grp = OUTSIDER
            body = f"Grp={OUTSIDER}"
        elif node.Grp == OUTSIDER:
            node.Grp, node.Seq = MEMBER, next_seq
            body = f"Grp={MEMBER}&Seq={next_seq}"
            next_seq += 1
        else:
            node.Seq = next_seq
            body = f"Seq={next_seq}"
            next_seq += 1
        last_epoch = epoch
        pairs = [pair.split("=") for pair in body.split("&")]
        if len(pairs) > 1:
            partials = []
            for name, value in pairs:
                rows_p = [Row(**vars(r)) for r in plan.states[-1]]
                setattr(rows_p[target], name, int(value) if name == "Seq" else value)
                partials.append(rows_p)
            plan.partials[len(plan.states)] = partials
        plan.states.append([Row(**vars(r)) for r in cur])
        plan.ops.append(ChurnOp(due, target, "write", body=body, state=len(plan.states) - 1))
    return plan
