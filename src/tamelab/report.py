"""Pass/fail ledgers shared by the verification suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"


@dataclass
class CheckItem:
    """One ledger line: a named identity or property and its outcome."""

    anchor: str
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def to_json(self) -> dict:
        return {"anchor": self.anchor, "status": self.status, "detail": self.detail}


def check(anchor: str, passed: bool, detail: str = "") -> CheckItem:
    return CheckItem(anchor, PASS if passed else FAIL, detail)


@dataclass
class SuiteReport:
    """Ledger produced by one verification suite, plus computed side data."""

    name: str
    items: list[CheckItem] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def add(self, anchor: str, passed: bool, detail: str = "") -> CheckItem:
        item = check(f"{self.name}/{anchor}", passed, detail)
        self.items.append(item)
        return item

    @property
    def all_pass(self) -> bool:
        return all(item.ok for item in self.items)
