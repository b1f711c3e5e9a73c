"""Hadoop-style counters: grouped named tallies visible to tasks and drivers."""

from __future__ import annotations

from collections import defaultdict

__all__ = ["Counters"]


def _int_dict() -> defaultdict:
    """Module-level inner-dict factory (lambdas would break pickling)."""
    return defaultdict(int)


class Counters:
    """Nested ``group -> name -> int`` counters with Hadoop-like semantics."""

    def __init__(self):
        self._data: dict[str, dict[str, int]] = defaultdict(_int_dict)

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``group:name``."""
        self._data[group][name] += amount

    def value(self, group: str, name: str) -> int:
        """Current value (0 if never incremented)."""
        return self._data.get(group, {}).get(name, 0)

    def group(self, group: str) -> dict[str, int]:
        """Snapshot of one group."""
        return dict(self._data.get(group, {}))

    def merge(self, other: "Counters") -> None:
        """Fold another counter set into this one.

        Zero-amount entries are skipped: they carry no information, and
        copying them would materialise empty groups in the destination
        (``value()`` already reports 0 for anything never incremented).
        """
        for group, names in other._data.items():
            for name, amount in names.items():
                if amount != 0:
                    self._data[group][name] += amount

    def as_dict(self) -> dict[str, dict[str, int]]:
        """Full snapshot."""
        return {g: dict(n) for g, n in self._data.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "Counters":
        """Rebuild counters from an :meth:`as_dict` snapshot (checkpoints).

        Zero-amount entries are dropped so a snapshot → restore round-trip
        does not resurrect groups that only ever held empty tallies.
        """
        out = cls()
        for group, names in data.items():
            for name, amount in names.items():
                if amount != 0:
                    out.increment(group, name, amount)
        return out

    def copy(self) -> "Counters":
        """An independent snapshot of the current state."""
        return Counters.from_dict(self.as_dict())

    def diff(self, baseline: "Counters") -> "Counters":
        """Counters accumulated since ``baseline`` (a before-snapshot).

        Returns a new :class:`Counters` holding ``self - baseline`` with
        zero deltas omitted — what the trace sink attaches to a task span
        as that task's own counter contribution.
        """
        out = Counters()
        for group, names in self._data.items():
            for name, amount in names.items():
                delta = amount - baseline.value(group, name)
                if delta != 0:
                    out.increment(group, name, delta)
        return out

    def __repr__(self) -> str:
        return f"Counters({self.as_dict()!r})"
