"""Seeded generator of small DSL programs for the ``service-mixed`` workload.

Every program has 2-6 tables and 3-12 transactions built from keyed
selects, updates and inserts.  The sizes cycle with the program's index
(every ten consecutive programs cover all ten transaction counts, every
five all five table counts) so that any seed sees the same mix of
sizes, and a run's cost does not hinge on how many large programs its
seed happened to draw; the statements are drawn from the seed.  All of its identifiers carry the
program's index, so no two generated programs share a table, field or
transaction name, and a job's result can only come from its own
analysis -- except when the workload resubmits a program verbatim.

Run ``python3 perfbench/progs.py --seed 1 --count 50`` to check that a
seed always gives byte-identical sources and that every source passes
``parse_program(validate=True)``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import sys
from typing import List


def generate(seed: int, index: int) -> str:
    """The source of program ``index`` of the stream seeded by ``seed``."""
    rng = random.Random(f"{seed}:{index}")
    tag = f"g{index}"
    tables = []
    for t in range(2 + index % 5):
        fields = [f"{tag}t{t}f{f}" for f in range(rng.randint(1, 3))]
        tables.append((f"{tag.upper()}T{t}", f"{tag}t{t}id", fields))
    parts = []
    for name, key, fields in tables:
        body = "".join(f"  field {f};\n" for f in fields)
        parts.append(f"schema {name} {{\n  key {key};\n{body}}}\n")
    for x in range(3 + index * 7 % 10):
        parts.append(_transaction(rng, f"{tag.upper()}X{x}", tables))
    return "\n".join(parts)


def _transaction(rng: random.Random, name: str, tables) -> str:
    lines: List[str] = []
    read = {}  # table name -> (variable, fields it read)
    for s in range(rng.randint(1, 2)):
        table, key, fields = rng.choice(tables)
        op = rng.choices(("select", "update", "insert"), (4, 4, 1))[0]
        if op == "select":
            cols = rng.sample(fields, rng.randint(1, len(fields)))
            var = f"v{s}"
            read[table] = (var, cols)
            lines.append(
                f"  {var} := select {', '.join(cols)} from {table}"
                f" where {key} = k;"
            )
        elif op == "update":
            field = rng.choice(fields)
            var, cols = read.get(table, (None, ()))
            value = f"{var}.{field} + a" if field in cols else "a"
            lines.append(
                f"  update {table} set {field} = {value} where {key} = k;"
            )
        else:
            values = ", ".join([f"{key} = a"] + [f"{f} = 0" for f in fields])
            lines.append(f"  insert into {table} values ({values});")
    return f"txn {name}(k, a) {{\n" + "\n".join(lines) + "\n}\n"


def _check(seed: int, count: int) -> List[str]:
    """Problems found in the first ``count`` programs of ``seed``."""
    from repro.lang import parse_program

    problems = []
    for index in range(count):
        first, again = generate(seed, index), generate(seed, index)
        if first != again:
            problems.append(f"program {index}: two generations differ")
        try:
            parse_program(first, validate=True)
        except Exception as exc:  # noqa: BLE001 - report every bad program
            problems.append(f"program {index}: {type(exc).__name__}: {exc}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=50)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    problems = _check(args.seed, args.count)
    digest = hashlib.sha1(
        "".join(generate(args.seed, i) for i in range(args.count)).encode()
    ).hexdigest()
    for problem in problems:
        print(problem)
    print(f"{args.count} programs, seed {args.seed}, sha1 {digest}: "
          f"{'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
