"""Per-rule fixture coverage: each rule catches its seeded violations
(none of which ruff's lint gates flag — the point of the checker) and
stays quiet on the idiomatic counterpart."""

from __future__ import annotations

import pytest

from repro.devtools.check import run_check

from _checker_utils import FIXTURES, open_config


def _check_file(name: str):
    path = FIXTURES / name
    result = run_check([path], open_config(), root=FIXTURES)
    return result.findings


BAD_EXPECTATIONS = [
    ("rpr001_bad.py", "RPR001", 4),
    ("rpr002_bad.py", "RPR002", 1),
    ("rpr003_bad.py", "RPR003", 3),
    ("rpr003_block_bad.py", "RPR003", 2),
    ("rpr004_bad.py", "RPR004", 3),
    ("rpr005_bad.py", "RPR005", 4),
]


@pytest.mark.parametrize("name,rule,count", BAD_EXPECTATIONS)
def test_bad_fixture_caught(name: str, rule: str, count: int) -> None:
    findings = _check_file(name)
    assert [f.rule for f in findings] == [rule] * count
    for finding in findings:
        assert finding.path == name
        assert finding.line > 0
        assert finding.message


@pytest.mark.parametrize(
    "name",
    [
        "rpr001_good.py",
        "rpr002_good.py",
        "rpr003_good.py",
        "rpr004_good.py",
        "rpr005_good.py",
    ],
)
def test_good_fixture_clean(name: str) -> None:
    assert _check_file(name) == []


def test_rpr001_sites() -> None:
    findings = _check_file("rpr001_bad.py")
    messages = " | ".join(f.message for f in findings)
    assert "time.monotonic" in messages
    assert "random.choice" in messages
    assert "random.Random()" in messages
    assert "set display" in messages
    assert all(f.symbol == "decide" for f in findings)


def test_rpr002_site_is_the_bare_assignment() -> None:
    (finding,) = _check_file("rpr002_bad.py")
    assert finding.symbol == "Counter.reset"
    assert "self.total" in finding.message


def test_rpr003_distinguishes_wrapper_from_algorithm() -> None:
    findings = _check_file("rpr003_bad.py")
    symbols = {f.symbol for f in findings}
    assert symbols == {"peek_best", "probe", "CheatingAlgorithm.run"}


def test_rpr003_catches_block_reads_on_raw_columnar_mints() -> None:
    findings = _check_file("rpr003_block_bad.py")
    assert {f.symbol for f in findings} == {"peek_block", "probe_block"}
    messages = " | ".join(f.message for f in findings)
    assert "sorted_access_block" in messages
    assert "random_access_block" in messages


def test_rpr004_names_the_offender() -> None:
    findings = _check_file("rpr004_bad.py")
    messages = " | ".join(f.message for f in findings)
    assert "a lambda" in messages
    assert "local_probe" in messages
    assert "self._probe" in messages


def test_rpr005_covers_all_four_mutation_shapes() -> None:
    findings = _check_file("rpr005_bad.py")
    messages = " | ".join(f.message for f in findings)
    assert "setflags(write=True)" in messages
    assert ".flags.writeable" in messages
    assert "element store" in messages
    assert "`sort(…)`" in messages
