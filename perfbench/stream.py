"""Seeded operation streams over the paper's Orders/Reorder example.

The generator keeps a model of the order book, so the status of every tuple
it has mentioned is known by construction, without asking the engine:

* a definite INSERT makes its tuple ``certain``;
* a disjunctive INSERT ``Orders(o,p,q1) | Orders(o,p,q2)`` makes each branch
  ``possible`` and both branches together ``impossible`` (the FD
  OrderNo -> (PartNo, Quan) rules out worlds with both);
* ``INSERT Reorder(p) WHERE Orders(o,p,q)`` makes ``Reorder(p)`` as certain
  as its condition was when it ran; every order has its own part number,
  so each ``Reorder`` atom depends on exactly one order;
* MODIFY, DELETE and an ASSERT of the other branch make a tuple
  ``impossible``; an ASSERT of a branch makes it ``certain`` and settles
  the ``Reorder`` atom conditioned on it.

This module imports nothing from the library: the engine receives only the
statement and query texts generated here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

CERTAIN = "certain"
POSSIBLE = "possible"
IMPOSSIBLE = "impossible"

#: The rotation of statement kinds in the write stream.
ROTATION = ("insert", "insert_or", "insert_where", "modify", "assert", "delete")

#: The rotation of ask kinds: an order tuple of each status, a Reorder
#: atom, and both branches of one open disjunction.  Asks about them cost
#: different amounts, so a fixed rotation gives every seed the same mix.
QUERY_ROTATION = (CERTAIN, POSSIBLE, IMPOSSIBLE, "reorder", "both")

#: Unresolved disjunctions kept open before an ASSERT starts resolving them;
#: below it, the ASSERT slot confirms a definite order instead.
OPEN_DISJUNCTIONS = 4


def orders(o: int, p: int, q: int) -> str:
    return f"Orders({o},{p},{q})"


def reorder(p: int) -> str:
    return f"Reorder({p})"


@dataclass
class Order:
    part: int
    quantities: Tuple[int, ...]  # one value if definite, two if disjunctive
    reorder_on: Optional[int] = None  # quantity a pending Reorder depends on


@dataclass
class Op:
    """One operation of a workload.

    ``kind`` is ``update`` (``text`` is LDML), ``ask`` (``expected`` is a
    status), ``find`` (``expected`` is the sorted ``(value, status)`` rows)
    or ``persist`` (save, load, then ask ``text`` of the loaded database,
    whose answer must be ``expected``).
    """

    kind: str
    text: str
    expected: object = None


@dataclass
class OrderBook:
    """The generator's model of the database: statement -> known answers."""

    rng: random.Random
    status: Dict[str, str] = field(default_factory=dict)
    definite: Dict[int, Order] = field(default_factory=dict)
    disjunctive: Dict[int, Order] = field(default_factory=dict)
    retired: List[Tuple[int, int]] = field(default_factory=list)
    next_order: int = 1000
    position: int = 0
    queries: int = 0
    finds: int = 0

    # -- writes -----------------------------------------------------------------

    def next_update(self) -> str:
        kind = ROTATION[self.position % len(ROTATION)]
        self.position += 1
        return getattr(self, "_" + kind)()

    def _new_order(self) -> Tuple[int, int]:
        o = self.next_order
        self.next_order += 1
        return o, o + 50000

    def _insert(self) -> str:
        o, p = self._new_order()
        q = self.rng.randint(1, 99)
        self.definite[o] = Order(p, (q,))
        self.status[orders(o, p, q)] = CERTAIN
        return f"INSERT {orders(o, p, q)}"

    def _insert_or(self) -> str:
        o, p = self._new_order()
        q1, q2 = self.rng.sample(range(1, 100), 2)
        self.disjunctive[o] = Order(p, (q1, q2))
        self.status[orders(o, p, q1)] = POSSIBLE
        self.status[orders(o, p, q2)] = POSSIBLE
        return f"INSERT {orders(o, p, q1)} | {orders(o, p, q2)}"

    def _insert_where(self) -> str:
        candidates = [
            o
            for book in (self.definite, self.disjunctive)
            for o, order in book.items()
            if reorder(order.part) not in self.status
        ]
        o = self.rng.choice(sorted(candidates))
        if o in self.definite:
            order = self.definite[o]
            q = order.quantities[0]
            self.status[reorder(order.part)] = CERTAIN
        else:
            order = self.disjunctive[o]
            q = self.rng.choice(order.quantities)
            order.reorder_on = q
            self.status[reorder(order.part)] = POSSIBLE
        return f"INSERT {reorder(order.part)} WHERE {orders(o, order.part, q)}"

    def _modify(self) -> str:
        o = self.rng.choice(sorted(self.definite))
        order = self.definite[o]
        old = order.quantities[0]
        new = self.rng.choice([q for q in range(1, 100) if q != old])
        order.quantities = (new,)
        self.status[orders(o, order.part, old)] = IMPOSSIBLE
        self.status[orders(o, order.part, new)] = CERTAIN
        return (
            f"MODIFY {orders(o, order.part, old)} "
            f"TO BE {orders(o, order.part, new)}"
        )

    def _assert(self) -> str:
        if len(self.disjunctive) <= OPEN_DISJUNCTIONS:
            o = self.rng.choice(sorted(self.definite))
            order = self.definite[o]
            return f"ASSERT {orders(o, order.part, order.quantities[0])}"
        o = self.rng.choice(sorted(self.disjunctive))
        order = self.disjunctive.pop(o)
        kept = self.rng.choice(order.quantities)
        for q in order.quantities:
            self.status[orders(o, order.part, q)] = (
                CERTAIN if q == kept else IMPOSSIBLE
            )
        if order.reorder_on is not None:
            self.status[reorder(order.part)] = (
                CERTAIN if order.reorder_on == kept else IMPOSSIBLE
            )
        self.definite[o] = Order(order.part, (kept,))
        return f"ASSERT {orders(o, order.part, kept)}"

    def _delete(self) -> str:
        # Keep a few definite orders for MODIFY and ASSERT to target; while
        # the book is that small, DELETE a tuple that is already gone.
        if len(self.definite) <= 2 and self.retired:
            o, p = self.rng.choice(self.retired)
            q = next(
                q for q in range(1, 100)
                if self.status.get(orders(o, p, q)) == IMPOSSIBLE
            )
            return f"DELETE {orders(o, p, q)}"
        o = self.rng.choice(sorted(self.definite))
        order = self.definite.pop(o)
        self.status[orders(o, order.part, order.quantities[0])] = IMPOSSIBLE
        self.retired.append((o, order.part))
        return f"DELETE {orders(o, order.part, order.quantities[0])}"

    # -- reads ----------------------------------------------------------------------

    def query(self) -> Tuple[str, str]:
        """A ground query of the next kind in :data:`QUERY_ROTATION`, with its
        known status; any tracked atom while no atom of that kind exists."""
        kind = QUERY_ROTATION[self.queries % len(QUERY_ROTATION)]
        self.queries += 1
        if kind == "both" and self.disjunctive:
            o = self.rng.choice(sorted(self.disjunctive))
            order = self.disjunctive[o]
            q1, q2 = order.quantities
            return f"{orders(o, order.part, q1)} & {orders(o, order.part, q2)}", IMPOSSIBLE
        if kind == "reorder":
            candidates = [t for t in self.status if t.startswith("Reorder(")]
        else:
            candidates = [
                t for t, status in self.status.items()
                if status == kind and t.startswith("Orders(")
            ]
        text = self.rng.choice(sorted(candidates or self.status))
        return text, self.status[text]

    def open_query(self) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
        """``Orders(o,p,?q)`` for a live order, with its known bindings.

        Two finds in three ask about an order whose quantity is in doubt
        (two bindings to decide), the third about a definite order (one),
        so the median find is always a two-binding one.
        """
        self.finds += 1
        doubtful = self.finds % 3 and self.disjunctive
        book = self.disjunctive if doubtful else self.definite
        o = self.rng.choice(sorted(book))
        p = book[o].part
        prefix = f"Orders({o},{p},"
        rows = sorted(
            (text[len(prefix):-1], status)
            for text, status in self.status.items()
            if text.startswith(prefix) and status != IMPOSSIBLE
        )
        return f"Orders({o},{p},?q)", tuple(rows)


@dataclass(frozen=True)
class Workload:
    """The shape of one workload: how many stream updates are applied in
    set-up and in the timed phase, and how reads are interleaved."""

    preload: int
    updates: int
    simplify_every: Optional[int] = None
    #: An ask, find or save/load round trip after every N timed updates
    #: (0: never).
    ask_every: int = 0
    find_every: int = 0
    persist_every: int = 0
    #: A closed-loop mix in place of the ask and find cadences: (ask, find)
    #: shares of the timed operations, the rest updates, in exact counts
    #: and a seeded order.
    mix: Optional[Tuple[float, float]] = None


def generate(workload: Workload, seed: str) -> Tuple[List[str], List[Op], OrderBook]:
    """(set-up statements, timed operations, the model after them) for
    *workload* and *seed*."""
    book = OrderBook(random.Random(seed))
    preload = [book.next_update() for _ in range(workload.preload)]
    ops: List[Op] = []
    if workload.mix is not None:
        ask_share, find_share = workload.mix
        total = round(workload.updates / (1 - ask_share - find_share))
        kinds = (
            ["ask"] * round(total * ask_share)
            + ["find"] * round(total * find_share)
            + ["update"] * workload.updates
        )
        book.rng.shuffle(kinds)
        applied = 0
        for kind in kinds:
            if kind == "ask":
                ops.append(Op("ask", *book.query()))
            elif kind == "find":
                ops.append(Op("find", *book.open_query()))
            else:
                ops.append(Op("update", book.next_update()))
                applied += 1
                if workload.persist_every and applied % workload.persist_every == 0:
                    ops.append(Op("persist", *book.query()))
        return preload, ops, book
    for n in range(1, workload.updates + 1):
        ops.append(Op("update", book.next_update()))
        if workload.ask_every and n % workload.ask_every == 0:
            ops.append(Op("ask", *book.query()))
        if workload.find_every and n % workload.find_every == 0:
            ops.append(Op("find", *book.open_query()))
        if workload.persist_every and n % workload.persist_every == 0:
            ops.append(Op("persist", *book.query()))
    return preload, ops, book
