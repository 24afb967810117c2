"""E14 — through the ``Database`` façade, an update costs the same at any
theory size, and asks between updates build no solver.

Section 3.6 bounds GUA's work per update by O(g·log R), independent of how
long the theory is.  E4 checks that on ``GuaExecutor.apply`` alone; this
experiment checks it end to end, where parsing, attribute tagging, the
journal and the query layer run around GUA.  The workload is the paper's
Orders example: schema ``Orders(OrderNo, PartNo, Quan)`` and
``Reorder(PartNo)``, the functional dependency OrderNo -> (PartNo, Quan),
``auto_tag`` on, and a seeded stream rotating definite, disjunctive and
conditional INSERTs, MODIFY and DELETE.  The theory grows linearly with the
stream, so any per-update work proportional to the theory shows as a
positive exponent.

* **E14a** — the median wall time of the last updates of a stream of N
  updates, for N = 100, 400, 1600, fitted to a power law in N: the
  exponent must stay near 0 (a walk of the theory per update reads ~1).
* **E14b** — after one update, a burst of asks constructs no ``Solver``:
  the theory's persistent query solver takes in only the wffs the update
  changed (counted exactly, not timed).
"""

import random
import statistics
import time

from repro import Database, FunctionalDependency, schema_from_dict
from repro.bench.measure import fit_power_law
from repro.bench.report import print_table
from repro.logic.sat import Solver
from repro.logic.terms import Predicate

SIZES = [100, 400, 1600]
TAIL = 50  #: updates timed at the end of each stream; their median is kept
SEED = 14
#: Statement kinds, in rotation; two definite inserts per DELETE keep the
#: order book growing, so the theory grows with the stream.
ROTATION = ("insert", "insert_or", "insert_where", "modify", "insert", "delete")


def orders_database():
    schema = schema_from_dict(
        {"Orders": ["OrderNo", "PartNo", "Quan"], "Reorder": ["PartNo"]}
    )
    order_fd = FunctionalDependency(Predicate("Orders", 3), [0], [1, 2])
    return Database(schema=schema, dependencies=[order_fd], auto_tag=True)


def order_stream(n, seed=SEED):
    """*n* LDML statements and the definite orders ``{order: (part,
    quantity)}`` they leave, every one certain."""
    rng = random.Random(seed)
    definite = {}
    statements = []
    next_order = 1000
    for i in range(n):
        kind = ROTATION[i % len(ROTATION)]
        if kind in ("insert", "insert_or"):
            o, p = next_order, next_order + 50000
            next_order += 1
            q1, q2 = rng.sample(range(1, 100), 2)
            if kind == "insert":
                definite[o] = (p, q1)
                statements.append(f"INSERT Orders({o},{p},{q1})")
            else:
                statements.append(
                    f"INSERT Orders({o},{p},{q1}) | Orders({o},{p},{q2})"
                )
            continue
        o = rng.choice(sorted(definite))
        p, q = definite[o]
        if kind == "insert_where":
            statements.append(f"INSERT Reorder({p}) WHERE Orders({o},{p},{q})")
        elif kind == "modify":
            new = rng.choice([x for x in range(1, 100) if x != q])
            definite[o] = (p, new)
            statements.append(
                f"MODIFY Orders({o},{p},{q}) TO BE Orders({o},{p},{new})"
            )
        else:
            del definite[o]
            statements.append(f"DELETE Orders({o},{p},{q})")
    return statements, definite


def _tail_median(n):
    db = orders_database()
    statements, _ = order_stream(n)
    seconds = []
    for statement in statements:
        start = time.perf_counter()
        db.update(statement)
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds[-TAIL:]), db.size()


def test_update_cost_flat_in_theory_size():
    rows = []
    medians = []
    for n in SIZES:
        median, nodes = _tail_median(n)
        medians.append(median)
        rows.append([n, nodes, median * 1e3])
    exponent = fit_power_law(SIZES, medians)
    print_table(
        "E14a: Database.update wall time vs stream length (Orders, FD, auto_tag)",
        ["N updates", "theory nodes", f"median ms of last {TAIL}"],
        rows,
        note=f"empirical exponent in N: {exponent:.3f} "
        "(Section 3.6 predicts ~0; a theory walk per update reads ~1)",
    )
    assert exponent < 0.3, exponent


def test_ask_burst_after_update_builds_no_solver(monkeypatch):
    statements, definite = order_stream(SIZES[0] + 1)
    db = orders_database()
    for statement in statements[:-1]:
        db.update(statement)
    queries = [f"Orders({o},{p},{q})" for o, (p, q) in sorted(definite.items())]
    db.ask(queries[0])  # the first ask builds the query solver
    db.update(statements[-1])

    builds = []
    original = Solver.__init__

    def counting(self, *args, **kwargs):
        builds.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "__init__", counting)
    statuses = [db.ask(query).status for query in queries[:8]]
    assert statuses == ["certain"] * len(statuses)
    assert len(builds) == 0
