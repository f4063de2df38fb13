"""Seeded RPR003 violations: block reads on raw columnar sources."""

from repro.access.columnar import ColumnarSource


def peek_block(store, list_index):
    source = ColumnarSource(store, list_index)
    return source.sorted_access_block(10)  # raw mint: nothing charges it


def probe_block(store, list_index, ids):
    return ColumnarSource(store, list_index).random_access_block(ids)
