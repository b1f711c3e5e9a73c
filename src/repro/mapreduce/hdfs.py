"""Simulated HDFS: files as record lists, split into blocks, replicated.

The engine reads its input as :class:`FileSplit` objects — the unit of map
parallelism, exactly as in Hadoop. Replication places each split on
``replication`` distinct nodes round-robin (Table 2's DFS replication ratio
is 3), and the scheduler can ask where a split lives to account for data
locality. The cluster grows and shrinks between phases: added datanodes
start empty, and a decommission drain re-replicates the retiring nodes'
blocks before they leave.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FileSplit", "SimulatedHDFS"]


@dataclass(frozen=True)
class FileSplit:
    """One input split: a contiguous slice of a file's records.

    ``preferred_nodes`` carries the replica placements so a locality-aware
    scheduler can run the map task where its data lives (empty = anywhere).
    """

    path: str
    index: int
    records: tuple
    preferred_nodes: tuple = ()

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class _StoredFile:
    records: list
    split_size: int
    placements: dict[int, tuple[int, ...]] = field(default_factory=dict)  # split -> node ids


class SimulatedHDFS:
    """An in-memory distributed filesystem.

    Parameters
    ----------
    n_nodes:
        Cluster size used for block placement.
    replication:
        Copies per split (Table 2 uses 3); clipped to ``n_nodes``.
    default_split_size:
        Records per split when a write does not specify one.
    """

    def __init__(self, n_nodes: int = 1, *, replication: int = 3, default_split_size: int = 1024):
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if default_split_size < 1:
            raise ValueError(f"default_split_size must be >= 1, got {default_split_size}")
        self.n_nodes = int(n_nodes)
        self._requested_replication = int(replication)
        self.replication = min(int(replication), self.n_nodes)
        self.default_split_size = int(default_split_size)
        self._files: dict[str, _StoredFile] = {}
        self._next_node = 0

    # -- elasticity ----------------------------------------------------------

    def add_nodes(self, count: int) -> tuple[int, ...]:
        """Join ``count`` fresh, empty datanodes (ids continue the range).

        Existing placements are untouched; subsequent writes spread over
        the enlarged pool, and the effective replication factor recovers
        toward the requested one if it had been clipped by a small cluster.
        """
        if count < 1:
            raise ValueError(f"must add at least one datanode, got {count}")
        added = tuple(range(self.n_nodes, self.n_nodes + int(count)))
        self.n_nodes += int(count)
        self.replication = min(self._requested_replication, self.n_nodes)
        return added

    def decommission_nodes(self, *nodes: int) -> int:
        """Drain and remove datanodes; returns the block copies re-replicated.

        ``nodes`` must be the highest-numbered datanodes so the surviving
        id space stays contiguous (the autoscaler always retires from the
        top). Every split with a replica on a retiring node gets a fresh
        copy on a surviving node before the retirees leave — the drain
        protocol — so no split loses all its replicas to a planned
        scale-down.
        """
        removing = {int(n) for n in nodes}
        if not removing:
            return 0
        if any(n < 0 or n >= self.n_nodes for n in removing):
            raise ValueError(f"unknown datanodes {sorted(removing)} (cluster has {self.n_nodes})")
        n_after = self.n_nodes - len(removing)
        if n_after < 1:
            raise ValueError("cannot decommission every datanode")
        if removing != set(range(n_after, self.n_nodes)):
            raise ValueError(
                f"decommission retires the highest-numbered datanodes; "
                f"expected {sorted(range(n_after, self.n_nodes))}, got {sorted(removing)}"
            )
        moved = 0
        for stored in self._files.values():
            for s in sorted(stored.placements):
                placements = stored.placements[s]
                keep = [n for n in placements if n not in removing]
                deficit = len(placements) - len(keep)
                if deficit == 0:
                    continue
                for target in range(n_after):
                    if deficit == 0:
                        break
                    if target in keep:
                        continue
                    keep.append(target)
                    moved += 1
                    deficit -= 1
                # Fewer surviving nodes than the replication factor: the
                # split keeps one copy per distinct survivor (degraded but
                # safe, same clipping as writes on a small cluster).
                stored.placements[s] = tuple(keep)
        self.n_nodes = n_after
        self.replication = min(self._requested_replication, self.n_nodes)
        self._next_node %= self.n_nodes
        return moved

    # -- writes ------------------------------------------------------------

    def write(self, path: str, records, *, split_size: int | None = None, overwrite: bool = False) -> None:
        """Store ``records`` under ``path``, splitting and placing blocks.

        Files are immutable (Hadoop semantics) unless ``overwrite`` is set —
        the escape hatch job-flow recovery uses to re-materialise a step's
        output when resuming after a driver crash.
        """
        size = self.default_split_size if split_size is None else split_size
        if size < 1:
            raise ValueError(f"split_size must be >= 1, got {size}")
        if path in self._files:
            if not overwrite:
                raise FileExistsError(f"{path!r} already exists (HDFS files are immutable)")
            del self._files[path]
        stored = _StoredFile(records=list(records), split_size=size)
        n_splits = max(1, -(-len(stored.records) // size))
        for s in range(n_splits):
            stored.placements[s] = tuple(
                (self._next_node + r) % self.n_nodes for r in range(self.replication)
            )
            self._next_node = (self._next_node + 1) % self.n_nodes
        self._files[path] = stored

    def delete(self, path: str) -> None:
        """Remove a file (KeyError if absent)."""
        del self._files[path]

    # -- reads -------------------------------------------------------------

    def exists(self, path: str) -> bool:
        """Whether ``path`` is stored."""
        return path in self._files

    def read(self, path: str) -> list:
        """All records of a file, in write order."""
        return list(self._files[path].records)

    def splits(self, path: str) -> list[FileSplit]:
        """The file's input splits (the unit of map parallelism)."""
        stored = self._files[path]
        size = stored.split_size
        return [
            FileSplit(
                path=path, index=s,
                records=tuple(stored.records[s * size : (s + 1) * size]),
                preferred_nodes=stored.placements[s],
            )
            for s in sorted(stored.placements)
        ]

    def locations(self, path: str, split_index: int) -> tuple[int, ...]:
        """Node ids holding a replica of the given split."""
        return self._files[path].placements[split_index]
