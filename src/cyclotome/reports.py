"""Tiny pass/fail report type shared by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    title: str
    entries: list[tuple[str, bool]] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> bool:
        self.entries.append((name, bool(ok)))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok in self.entries)

    @property
    def failures(self) -> list[str]:
        return [name for name, ok in self.entries if not ok]
