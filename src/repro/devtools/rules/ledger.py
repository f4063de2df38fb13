"""RPR003 — ledger accounting: every access is charged.

The paper's cost model *is* the access count: Theorem 5.3 bounds the
number of sorted/random accesses, and every gate in
``BENCH_topk.json`` compares those counts bit-for-bit. The charging
point is :class:`repro.access.source.InstrumentedSource` — sessions
hand algorithms instrumented sources, so ``next_sorted`` /
``sorted_access_batch`` / ``random_access`` / ``random_access_many``
decompose into ``AccessStats`` entries by construction.

This rule flags the access paths that dodge that wrapper:

* access methods on a **freshly minted raw source** —
  ``MaterializedSource(…).next_sorted()``,
  ``ColumnarSource(…).sorted_access_block(n)``, an alternate
  constructor such as ``MaterializedSource.trusted(…)``, or
  through a local bound to one (``src = MaterializedSource(…);
  src.random_access(o)``) — raw mints never charge;
* access methods on ``self.<attr>`` in a class that is **not itself a
  source wrapper** (an algorithm or executor squirrelling away a raw
  source and probing it off-ledger). Wrappers — classes whose base
  names mention ``Source`` — legitimately delegate to ``self._inner``
  and are exempt; they *are* the access layer.

Receivers that are parameters or session lookups
(``sources[i].sorted_access_batch(n)``,
``session.sources[j].random_access(obj)``) are the sanctioned path and
never flagged. The access package itself is excluded — it is the
implementation being protected.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.config import RuleConfig
from repro.devtools.findings import Finding
from repro.devtools.visitor import (
    ModuleInfo,
    Rule,
    dotted_name,
    iter_with_symbol,
    root_name,
)

__all__ = ["LedgerAccountingRule"]


def _is_access_method(name: str) -> bool:
    return (
        name == "next_sorted"
        or name.startswith("sorted_access")
        or name.startswith("random_access")
    )


def _is_raw_source_mint(node: ast.AST) -> bool:
    """A call expression that mints an uninstrumented source."""
    if not isinstance(node, ast.Call):
        return False
    callee = dotted_name(node.func)
    if callee is None:
        return False
    parts = callee.split(".")
    last = parts[-1]
    if last == "trusted":  # MaterializedSource.trusted fast-path mint
        return "Source" in callee
    if len(parts) > 1 and parts[-2].endswith("Source"):
        # An alternate constructor (SomeSource.from_x(...)).
        return parts[-2] != "InstrumentedSource"
    return last.endswith("Source") and last != "InstrumentedSource"


def _receiver_mints_raw_source(receiver: ast.AST) -> bool:
    return any(_is_raw_source_mint(sub) for sub in ast.walk(receiver))


def _class_is_source_wrapper(classes: tuple[ast.ClassDef, ...]) -> bool:
    if not classes:
        return False
    cls = classes[-1]
    for base in cls.bases:
        name = dotted_name(base)
        if name is not None and "Source" in name:
            return True
    return False


def _local_raw_source_names(
    tree: ast.Module,
) -> dict[tuple[int, int], set[str]]:
    """Per-function-span sets of local names bound to raw source mints."""
    spans: dict[tuple[int, int], set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and _is_raw_source_mint(sub.value):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        if names:
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
            spans[(node.lineno, end)] = names
    return spans


class LedgerAccountingRule(Rule):
    rule_id = "RPR003"
    summary = (
        "sorted/random accesses must go through instrumented session "
        "sources so AccessStats charges them"
    )
    default_paths = (
        "repro/algorithms/",
        "repro/engine/",
        "repro/middleware/",
        "repro/serving/",
        "repro/analysis/",
    )
    default_exclude = ("repro/access/",)

    def check(
        self, module: ModuleInfo, config: RuleConfig
    ) -> Iterator[Finding]:
        raw_locals = _local_raw_source_names(module.tree)
        for node, symbol, classes in iter_with_symbol(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if not _is_access_method(func.attr):
                continue
            receiver = func.value
            if _receiver_mints_raw_source(receiver):
                yield self.finding(
                    module, node,
                    f"`{func.attr}` on a freshly minted raw source — raw "
                    "mints bypass AccessStats; go through the session's "
                    "instrumented sources",
                    symbol,
                )
                continue
            root = root_name(receiver)
            if root == "self" and not _class_is_source_wrapper(classes):
                yield self.finding(
                    module, node,
                    f"`{func.attr}` on a stored `self.…` source in a "
                    "non-wrapper class — accesses here dodge the session "
                    "ledger; take sources from the session per query",
                    symbol,
                )
                continue
            if root is not None and isinstance(receiver, ast.Name):
                line = node.lineno
                for (start, end), names in raw_locals.items():
                    if start <= line <= end and root in names:
                        yield self.finding(
                            module, node,
                            f"`{func.attr}` on `{root}`, which this "
                            "function bound to a raw source mint — raw "
                            "mints bypass AccessStats",
                            symbol,
                        )
                        break
