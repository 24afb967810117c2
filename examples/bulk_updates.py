"""Bulk updates with variables — the Section 4 extension at work.

LDML as presented in the paper is ground; Section 4 notes that "updates
with variables can be reduced to the problem of performing a set of ground
updates simultaneously."  This example shows the reduction end-to-end:
``?var`` syntax, grounding over the theory's atom universe, simultaneous
execution, and the case where simultaneity visibly matters (a swap).

Run:  python examples/bulk_updates.py
"""

from repro import Database
from repro.ldml.open_updates import parse_open_update
from repro.ldml.simultaneous import SimultaneousInsert


def main() -> None:
    db = Database()

    print("1. Load a small order book (one uncertain entry).")
    db.update("INSERT Orders(1,32,5) WHERE T")
    db.update("INSERT Orders(2,32,7) | Orders(2,32,8) WHERE T")
    db.update("INSERT Orders(3,33,2) WHERE T")
    print("   worlds:", db.world_count())

    print("\n2. An open update: flag every part-32 order, whichever world.")
    open_update = parse_open_update("INSERT Flagged(?o) WHERE Orders(?o, 32, ?q)")
    print("   variables:", open_update.variables())
    expansion = open_update.expand(db.theory)
    print(f"   grounded to {len(expansion)} simultaneous pairs")
    db.update("INSERT Flagged(?o) WHERE Orders(?o, 32, ?q)")
    print("   Flagged(1):", db.ask("Flagged(1)").status)
    print("   Flagged(2):", db.ask("Flagged(2)").status)
    print("   Flagged(3):", db.ask("Flagged(3)").status)

    print("\n3. Bulk delete: cancel all part-32 orders in every world.")
    db.update("DELETE Orders(?o, 32, ?q) WHERE Orders(?o, 32, ?q)")
    print("   any part-32 order left possible?",
          db.is_possible("Orders(1,32,5) | Orders(2,32,7) | Orders(2,32,8)"))
    print("   order 3 untouched:", db.ask("Orders(3,33,2)").status)

    print("\n4. Why *simultaneous* matters: swap two departments atomically.")
    hr_sales = Database()
    hr_sales.update("INSERT Emp(alice,sales) WHERE T")
    hr_sales.update("INSERT Emp(carol,hr) WHERE T")
    to_hr = parse_open_update(
        "INSERT Emp(?x,hr) & !Emp(?x,sales) WHERE Emp(?x,sales)"
    ).expand(hr_sales.theory)
    to_sales = parse_open_update(
        "INSERT Emp(?y,sales) & !Emp(?y,hr) WHERE Emp(?y,hr)"
    ).expand(hr_sales.theory)
    swap = SimultaneousInsert(list(to_hr.pairs) + list(to_sales.pairs))
    hr_sales.update(swap)
    print("   alice in hr:", hr_sales.ask("Emp(alice,hr)").status)
    print("   carol in sales:", hr_sales.ask("Emp(carol,sales)").status)
    print("   (sequential application would have moved alice to hr and then"
          " straight back — the clauses read the *original* world)")

    print("\n5. All through GUA — no worlds were ever materialized:")
    print(f"   theory size {db.size()} nodes, "
          f"{len(db.transactions.log)} journal entries")


if __name__ == "__main__":
    main()
