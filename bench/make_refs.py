"""Rewrites the committed reference table for the default seed.

    python3 bench/make_refs.py

Runs every workload once at the default seed, long enough to reach each of
its distinct ops, and stores every reference value the gate used, keyed by
method, link fields and power. Runs at the default seed then find their
references in the table; other seeds compute theirs after the timed loop.
Rerun this when the workloads' inputs or the gate's check points change.
"""

from __future__ import annotations

import run
from inputs import DEFAULT_SEED, WORKLOADS
from reference import RefStore

SECONDS = 30  # reaches every distinct op: full-mc has 3, about 2.5 s each on 2 cores


def main() -> None:
    store = RefStore()
    for workload in WORKLOADS:  # the traced passes are prefixes of these ops
        run.execute(workload, DEFAULT_SEED, SECONDS, False, refs=store)
    store.write(run.REF_TABLE)
    print(f"wrote {len(store.values)} reference values to {run.REF_TABLE}")


if __name__ == "__main__":
    main()
