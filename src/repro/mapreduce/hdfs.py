"""Simulated HDFS: files as record lists, split into blocks, replicated.

The engine reads its input as :class:`FileSplit` objects — the unit of map
parallelism, exactly as in Hadoop. Replication places each split on
``replication`` distinct nodes round-robin (Table 2's DFS replication ratio
is 3), and the scheduler can ask where a split lives to account for data
locality.

Datanodes can be marked dead (:meth:`SimulatedHDFS.mark_dead`): reads then
fail over to the surviving replicas of each split — new writes avoid dead
nodes — and only when *every* replica of some split is gone does a read
surface a structured :class:`ReplicaUnavailableError`, never a silent
wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mapreduce.storage import StorageError

__all__ = ["FileSplit", "SimulatedHDFS", "ReplicaUnavailableError"]


class ReplicaUnavailableError(StorageError):
    """Every replica of a split lives on a dead datanode.

    Carries the path, split index, and the (dead) placement nodes so the
    operator can see exactly which failures compounded.
    """

    def __init__(self, path: str, split_index: int, placements: tuple):
        super().__init__(
            f"all replicas of {path!r} split {split_index} are on dead nodes "
            f"{sorted(placements)}"
        )
        self.path = path
        self.split_index = split_index
        self.placements = tuple(placements)


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
        self._dead: set[int] = set()

    # -- datanode liveness -------------------------------------------------

    @property
    def dead_nodes(self) -> frozenset:
        """Datanodes currently marked dead."""
        return frozenset(self._dead)

    def mark_dead(self, *nodes: int) -> None:
        """Mark datanodes dead: reads fail over to surviving replicas and
        new writes avoid them. At least one node must stay alive."""
        dead = self._dead | {int(n) % self.n_nodes for n in nodes}
        if len(dead) >= self.n_nodes:
            raise ValueError("cannot mark every datanode dead")
        self._dead = dead

    def mark_alive(self, *nodes: int) -> None:
        """Bring datanodes back (idempotent); their replicas become readable
        again — simulated blocks survive a temporary outage."""
        self._dead -= {int(n) % self.n_nodes for n in nodes}

    def _live_replicas(self, placements: tuple) -> tuple:
        return tuple(n for n in placements if n not in self._dead)

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
        copy on a surviving *live* node before the retirees leave — the
        drain protocol — so no split loses all its replicas to a planned
        scale-down. A retiring node that is already dead (a kill racing
        the drain) cannot serve as a copy source; its splits re-replicate
        from their surviving live replicas instead, and only a split with
        no live holder at all raises :class:`ReplicaUnavailableError`.
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
        targets = [n for n in range(n_after) if n not in self._dead]
        if not targets:
            raise ValueError("no live datanodes left to receive drained blocks")
        moved = 0
        for path, stored in sorted(self._files.items()):
            for s in sorted(stored.placements):
                placements = stored.placements[s]
                keep = [n for n in placements if n not in removing]
                deficit = len(placements) - len(keep)
                if deficit == 0:
                    continue
                if not self._live_replicas(placements):
                    # Every holder (draining or not) is dead: the drain can
                    # copy from nothing — surface the loss, never hide it.
                    raise ReplicaUnavailableError(path, s, placements)
                for target in targets:
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
        self._dead -= removing
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
        if path in self._files:
            if not overwrite:
                raise FileExistsError(f"{path!r} already exists (HDFS files are immutable)")
            del self._files[path]
        size = split_size or self.default_split_size
        if size < 1:
            raise ValueError(f"split_size must be >= 1, got {size}")
        stored = _StoredFile(records=list(records), split_size=size)
        n_splits = max(1, -(-len(stored.records) // size))
        live = [n for n in range(self.n_nodes) if n not in self._dead]
        replication = min(self.replication, len(live))
        for s in range(n_splits):
            nodes = tuple(
                live[(self._next_node + r) % len(live)] for r in range(replication)
            )
            stored.placements[s] = nodes
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
        """All records of a file, in write order.

        Each split is served by any *live* replica; a split whose replicas
        are all on dead nodes raises :class:`ReplicaUnavailableError`.
        """
        stored = self._files[path]
        for s in sorted(stored.placements):
            if not self._live_replicas(stored.placements[s]):
                raise ReplicaUnavailableError(path, s, stored.placements[s])
        return list(stored.records)

    def splits(self, path: str) -> list[FileSplit]:
        """The file's input splits (the unit of map parallelism).

        ``preferred_nodes`` fails over to the surviving replicas of each
        split when placement nodes are dead; a split with no live replica
        raises :class:`ReplicaUnavailableError`.
        """
        stored = self._files[path]
        size = stored.split_size
        out = []
        for s in sorted(stored.placements):
            live = self._live_replicas(stored.placements[s])
            if not live:
                raise ReplicaUnavailableError(path, s, stored.placements[s])
            out.append(
                FileSplit(
                    path=path, index=s,
                    records=tuple(stored.records[s * size : (s + 1) * size]),
                    preferred_nodes=live,
                )
            )
        return out

    def locations(self, path: str, split_index: int) -> tuple[int, ...]:
        """Node ids holding a *live* replica of the given split (all
        placements when no datanode is marked dead)."""
        placements = self._files[path].placements[split_index]
        live = self._live_replicas(placements)
        return live if live else placements
