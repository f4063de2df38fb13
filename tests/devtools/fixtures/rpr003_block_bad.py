"""Seeded RPR003 violations: block reads on raw columnar sources."""

from repro.access.columnar import ColumnarSource


def peek_block(name, items, grades, order, column):
    source = ColumnarSource.over_store(name, items, grades, order, column)
    return source.sorted_access_block(10)  # raw mint: nothing charges it


def probe_block(name, items, grades, order, column, ids):
    return ColumnarSource.over_store(
        name, items, grades, order, column
    ).random_access_block(ids)
