"""The storage plane: object stores, fault injection, and the hardened client.

The paper's Section 5.1 workflow leans entirely on remote storage — inputs
go up to S3, job-flow checkpoints and results come back out — and a real
EMR deployment fails most often at exactly that boundary: throttled
requests, torn writes, flipped bits, reads that time out. This module
models that boundary, and the client that survives it, in three layers:

* :class:`S3Store` — the flat in-memory object store (bucket/key → value).
  Writes snapshot their object (a later caller-side mutation cannot corrupt
  a "persisted" checkpoint) and missing keys surface as a structured
  :class:`NoSuchKeyError` naming the key and its nearest-prefix neighbours.
* :class:`ChaosStore` — a policy-driven fault injector wrapping any store:
  seeded per-op latency, transient request errors and ``SlowDown``-style
  throttling, torn writes (key promoted, payload truncated), bit-flip
  corruption, and read-unavailability windows: the test fake that drills
  the hardened client.
* :class:`ResilientStore` — the hardened client layered over any store:
  checksummed self-describing envelopes (CRC32 + format version over the
  pickled payload), atomic write-then-verify-then-promote, deterministic
  seeded exponential backoff with jitter, per-op deadlines, and the
  :class:`StorageError` hierarchy. Under any survivable fault schedule the
  bytes that land under a key decode to exactly the object that was put;
  an unsurvivable schedule raises a structured :class:`StorageError`,
  never a bare ``KeyError``/``EOFError``.

Retries, corruption detections, and quarantines are emitted as
``storage.*`` trace events (with backoff time as ``wasted_cost``, so the
fault ledger of :func:`repro.observability.report.fault_summary` itemizes
storage waste next to re-executed checkpoint steps) and tallied on the
tracer's metrics registry.
"""

from __future__ import annotations

import copy
import pickle
import struct
import zlib
from dataclasses import dataclass

from repro.observability import get_tracer
from repro.utils.rng import as_rng

__all__ = [
    "StorageError",
    "NoSuchKeyError",
    "TransientStorageError",
    "CorruptObjectError",
    "StorageDeadlineError",
    "ENVELOPE_MAGIC",
    "ENVELOPE_VERSION",
    "pack_envelope",
    "unpack_envelope",
    "S3Store",
    "StorageFaultPolicy",
    "ChaosStore",
    "RetryPolicy",
    "ResilientStore",
]


# -- error hierarchy ---------------------------------------------------------


class StorageError(RuntimeError):
    """Base class for every structured storage-plane failure."""


class NoSuchKeyError(StorageError, KeyError):
    """A get/delete named a key that is not in the store.

    Subclasses ``KeyError`` so pre-existing ``except KeyError`` callers keep
    working; carries the key and the nearest-prefix candidates so the
    message is actionable (a typo'd checkpoint prefix shows its neighbours).
    """

    def __init__(self, key: str, candidates: tuple = ()):
        message = f"no such key {key!r}"
        if candidates:
            message += " (nearest keys: " + ", ".join(repr(c) for c in candidates) + ")"
        super().__init__(message)
        self.key = key
        self.candidates = tuple(candidates)

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


class TransientStorageError(StorageError):
    """A retryable request failure (throttling, 5xx, unavailability window).

    ``code`` mirrors the S3 error-code vocabulary (``SlowDown``,
    ``InternalError``, ``ServiceUnavailable``).
    """

    def __init__(self, message: str, *, code: str = "InternalError", op: str = "", key: str = ""):
        super().__init__(message)
        self.code = code
        self.op = op
        self.key = key


class CorruptObjectError(StorageError):
    """An object failed envelope verification (torn write, flipped bits).

    ``reason`` is one of ``not-bytes`` / ``truncated-header`` /
    ``bad-magic`` / ``unsupported-version`` / ``torn`` / ``checksum`` /
    ``undecodable``.
    """

    def __init__(self, message: str, *, key: str = "", reason: str = "checksum"):
        super().__init__(message)
        self.key = key
        self.reason = reason


class StorageDeadlineError(StorageError):
    """An operation exhausted its retry budget or per-op deadline.

    Carries the op, key, attempt count, simulated backoff spent, and the
    last underlying error (also chained as ``__cause__``).
    """

    def __init__(self, message: str, *, op: str, key: str, attempts: int, elapsed: float):
        super().__init__(message)
        self.op = op
        self.key = key
        self.attempts = attempts
        self.elapsed = elapsed


# -- checksummed envelopes ---------------------------------------------------

ENVELOPE_MAGIC = b"RSE1"
ENVELOPE_VERSION = 1

#: magic(4) | version(1) | crc32(4) | payload-length(8), big-endian.
_HEADER = struct.Struct(">4sBIQ")


def pack_envelope(obj) -> bytes:
    """Serialize ``obj`` into a self-describing checksummed envelope.

    Layout: 4-byte magic, 1-byte format version, CRC32 of the payload,
    payload length, then the pickled payload. Everything a reader needs to
    detect truncation (length mismatch) or bit flips (CRC mismatch) before
    it ever reaches the unpickler.
    """
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(
        ENVELOPE_MAGIC, ENVELOPE_VERSION, zlib.crc32(payload) & 0xFFFFFFFF, len(payload)
    )
    return header + payload


def unpack_envelope(data, *, key: str = "") -> object:
    """Verify and decode an envelope produced by :func:`pack_envelope`.

    Raises :class:`CorruptObjectError` with a specific ``reason`` on any
    mismatch — the caller never sees a bare ``EOFError``/``UnpicklingError``
    from a torn or corrupted object.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise CorruptObjectError(
            f"object {key!r} is not an envelope (got {type(data).__name__})",
            key=key, reason="not-bytes",
        )
    if len(data) < _HEADER.size:
        raise CorruptObjectError(
            f"object {key!r} is truncated inside the envelope header "
            f"({len(data)} < {_HEADER.size} bytes)",
            key=key, reason="truncated-header",
        )
    magic, version, crc, length = _HEADER.unpack_from(bytes(data))
    if magic != ENVELOPE_MAGIC:
        raise CorruptObjectError(
            f"object {key!r} has bad envelope magic {magic!r}", key=key, reason="bad-magic"
        )
    if version != ENVELOPE_VERSION:
        raise CorruptObjectError(
            f"object {key!r} has unsupported envelope version {version}",
            key=key, reason="unsupported-version",
        )
    payload = bytes(data[_HEADER.size :])
    if len(payload) != length:
        raise CorruptObjectError(
            f"object {key!r} is torn: payload is {len(payload)} bytes, envelope "
            f"promises {length}",
            key=key, reason="torn",
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CorruptObjectError(
            f"object {key!r} failed its CRC32 check", key=key, reason="checksum"
        )
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise CorruptObjectError(
            f"object {key!r} passed its checksum but failed to decode: {exc}",
            key=key, reason="undecodable",
        ) from exc


# -- the base object store ---------------------------------------------------


class S3Store:
    """A flat object store: bucket/key -> object (any Python value).

    Writes store a *snapshot* of the object (pickle round-trip, falling back
    to ``copy.deepcopy`` for unpicklable values): mutating the caller's
    object after ``put`` cannot silently corrupt what was "persisted", which
    is exactly the property checkpoint recovery depends on. ``bytes``
    payloads are immutable and stored as-is.
    """

    def __init__(self):
        self._objects: dict[str, object] = {}

    @staticmethod
    def _snapshot(obj: object) -> object:
        if isinstance(obj, (bytes, bytearray)):
            return bytes(obj)
        try:
            return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            return copy.deepcopy(obj)

    def _nearest(self, key: str, limit: int = 3) -> tuple:
        """Keys sharing the longest common prefix with ``key`` (for errors)."""

        def shared(other: str) -> int:
            n = 0
            for a, b in zip(key, other):
                if a != b:
                    break
                n += 1
            return n

        ranked = sorted(self._objects, key=lambda k: (-shared(k), k))
        return tuple(k for k in ranked[:limit] if shared(k) > 0)

    def put(self, key: str, obj: object) -> None:
        """Store a snapshot of an object (overwrite allowed — S3 semantics)."""
        self._objects[key] = self._snapshot(obj)

    def get(self, key: str) -> object:
        """Fetch an object (:class:`NoSuchKeyError` if absent)."""
        try:
            return self._objects[key]
        except KeyError:
            raise NoSuchKeyError(key, self._nearest(key)) from None

    def exists(self, key: str) -> bool:
        """Whether the key is present."""
        return key in self._objects

    def list_keys(self, prefix: str = "") -> list[str]:
        """All keys under a prefix, sorted."""
        return sorted(k for k in self._objects if k.startswith(prefix))

    def delete(self, key: str) -> None:
        """Remove an object (:class:`NoSuchKeyError` if absent)."""
        try:
            del self._objects[key]
        except KeyError:
            raise NoSuchKeyError(key, self._nearest(key)) from None


# -- chaos injection ---------------------------------------------------------


@dataclass
class StorageFaultPolicy:
    """Deterministic, seeded storage-fault schedule for :class:`ChaosStore`.

    Every fault draw comes from one seeded generator consumed in a fixed
    per-op order, so a given schedule replays identically.

    Parameters
    ----------
    error_rate:
        Per-request probability of a transient ``InternalError`` (applies
        to put/get/delete).
    throttle_rate:
        Per-request probability of a ``SlowDown`` throttling response.
    latency:
        ``(low, high)`` simulated seconds added per request (accumulated on
        :attr:`ChaosStore.simulated_latency`, never slept).
    torn_write_rate:
        Probability that a put of a ``bytes`` payload lands truncated — the
        key is promoted but the payload is cut short (the classic
        partial-upload failure). Non-bytes payloads consume the draw but
        cannot be torn.
    corrupt_rate:
        Probability that a put of a ``bytes`` payload lands with one bit
        flipped (persistent at-rest corruption).
    unavailable:
        ``(first, last)`` windows of *get-request sequence numbers* (0-based,
        inclusive) during which reads fail with ``ServiceUnavailable`` —
        a deterministic read-outage window.
    seed:
        Randomness for all draws.
    """

    error_rate: float = 0.0
    throttle_rate: float = 0.0
    latency: tuple = (0.0, 0.0)
    torn_write_rate: float = 0.0
    corrupt_rate: float = 0.0
    unavailable: tuple = ()
    seed: int = 0

    def __post_init__(self):
        for name in ("error_rate", "throttle_rate", "torn_write_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        low, high = self.latency
        if not 0.0 <= low <= high:
            raise ValueError(f"latency range must satisfy 0 <= low <= high, got {self.latency}")
        for window in self.unavailable:
            if len(window) != 2 or window[0] > window[1] or window[0] < 0:
                raise ValueError(
                    f"unavailable windows are (first_get, last_get) with 0 <= first <= last, "
                    f"got {window!r}"
                )


class ChaosStore:
    """A fault-injecting wrapper over any object store.

    Wraps a store implementing the object-store protocol
    (``put/get/exists/list_keys/delete``) and injects the faults of a
    :class:`StorageFaultPolicy` in front of it. Metadata operations
    (``exists``/``list_keys``) are left clean — they model cheap HEAD/LIST
    requests — so existence probes stay truthful while data paths misbehave.

    Torn writes and bit flips only apply to ``bytes`` payloads (the
    :class:`ResilientStore` envelope path); the draws are still consumed
    for other values so fault schedules stay aligned across runs.

    Attributes
    ----------
    injected:
        Tally of injected faults by kind (``error`` / ``throttle`` /
        ``torn`` / ``corrupt`` / ``unavailable``).
    simulated_latency:
        Total injected latency in simulated seconds (never slept).
    """

    def __init__(self, inner: object | None = None, *, policy: StorageFaultPolicy | None = None):
        self.inner = inner if inner is not None else S3Store()
        self.policy = policy if policy is not None else StorageFaultPolicy()
        self._rng = as_rng(self.policy.seed)
        self._n_gets = 0
        self.injected: dict[str, int] = {}
        self.simulated_latency = 0.0

    # -- fault draws ---------------------------------------------------------

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    def _draw_latency(self) -> None:
        low, high = self.policy.latency
        if high > 0.0:
            self.simulated_latency += float(low + (high - low) * self._rng.random())

    def _maybe_fail_request(self, op: str, key: str) -> None:
        self._draw_latency()
        if self.policy.error_rate > 0 and self._rng.random() < self.policy.error_rate:
            self._count("error")
            raise TransientStorageError(
                f"injected InternalError on {op} {key!r}", code="InternalError", op=op, key=key
            )
        if self.policy.throttle_rate > 0 and self._rng.random() < self.policy.throttle_rate:
            self._count("throttle")
            raise TransientStorageError(
                f"injected SlowDown on {op} {key!r}", code="SlowDown", op=op, key=key
            )

    def _damage(self, key: str, obj: object) -> object:
        """Apply write-path damage draws (torn / bit-flip) to a payload."""
        torn = self.policy.torn_write_rate > 0 and self._rng.random() < self.policy.torn_write_rate
        frac = self._rng.random()  # always consumed: keeps schedules aligned
        corrupt = self.policy.corrupt_rate > 0 and self._rng.random() < self.policy.corrupt_rate
        pos = self._rng.random()
        bit = int(self._rng.integers(8))
        if not isinstance(obj, (bytes, bytearray)) or len(obj) == 0:
            return obj
        data = bytes(obj)
        if torn:
            self._count("torn")
            cut = max(1, int(len(data) * (0.1 + 0.8 * frac)))
            data = data[:cut]
        if corrupt and data:
            self._count("corrupt")
            damaged = bytearray(data)
            damaged[int(pos * len(damaged)) % len(damaged)] ^= 1 << bit
            data = bytes(damaged)
        return data

    # -- the store protocol --------------------------------------------------

    def put(self, key: str, obj: object) -> None:
        self._maybe_fail_request("put", key)
        self.inner.put(key, self._damage(key, obj))

    def get(self, key: str) -> object:
        seq = self._n_gets
        self._n_gets += 1
        for first, last in self.policy.unavailable:
            if first <= seq <= last:
                self._count("unavailable")
                self._draw_latency()
                raise TransientStorageError(
                    f"injected ServiceUnavailable on get {key!r} (request #{seq})",
                    code="ServiceUnavailable", op="get", key=key,
                )
        self._maybe_fail_request("get", key)
        return self.inner.get(key)

    def exists(self, key: str) -> bool:
        return self.inner.exists(key)

    def list_keys(self, prefix: str = "") -> list[str]:
        return self.inner.list_keys(prefix)

    def delete(self, key: str) -> None:
        self._maybe_fail_request("delete", key)
        self.inner.delete(key)


# -- the hardened client -----------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic seeded exponential backoff with jitter + per-op deadline.

    ``delay(k)`` for attempt ``k`` (0-based) is
    ``min(max_delay, base_delay * multiplier**k)`` shrunk by up to
    ``jitter`` of itself via a seeded uniform draw — the decorrelated-jitter
    shape real S3 clients use, made reproducible. Backoff time is
    *simulated* (accumulated, not slept): the deadline is enforced against
    the accumulated total.
    """

    max_attempts: int = 6
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    deadline: float = 30.0
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("delays must satisfy 0 <= base_delay <= max_delay")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")

    def delays(self, rng) -> list[float]:
        """The full jittered backoff schedule (one delay per retry slot)."""
        out = []
        for k in range(self.max_attempts - 1):
            base = min(self.max_delay, self.base_delay * self.multiplier**k)
            out.append(base * (1.0 - self.jitter * float(rng.random())))
        return out


class ResilientStore:
    """The hardened object-store client: envelopes, retries, atomic writes.

    Layered over any store implementing the object-store protocol (a plain
    :class:`S3Store`, a :class:`ChaosStore`, anything duck-typed the same):

    * every object is wrapped in a :func:`pack_envelope` checksummed
      envelope, so torn writes and bit flips are *detected*, never
      silently unpickled;
    * ``put`` is write-then-verify-then-promote: the envelope lands under a
      temporary key, is read back and verified, is promoted to the final
      key, and the promoted copy is verified again before the temp key is
      cleaned up — a damaged write at any stage is retried, and the final
      key never holds bytes that were not verified after landing;
    * transient errors (and failed write verifications) retry under the
      seeded exponential backoff of :class:`RetryPolicy`, with each retry
      emitted as a ``storage.retry`` trace event whose backoff delay is the
      ``wasted_cost`` the fault ledger itemizes;
    * a ``get`` that decodes to damaged bytes raises
      :class:`CorruptObjectError` (persistent corruption is not retried —
      the caller decides whether to quarantine and fall back);
    * retry/deadline exhaustion raises :class:`StorageDeadlineError`.

    Backoff time is simulated: it accrues on :attr:`backoff_total` instead
    of sleeping, keeping chaos suites fast and deterministic.
    """

    #: Suffixes for the commit protocol and for quarantined objects.
    TMP_SUFFIX = ".tmp"
    CORRUPT_SUFFIX = ".corrupt"

    def __init__(self, inner: object, *, retry: RetryPolicy | None = None):
        self.inner = inner
        self.retry = retry if retry is not None else RetryPolicy()
        self._rng = as_rng(self.retry.seed)
        self.backoff_total = 0.0

    @classmethod
    def wrap(cls, store: object, *, retry: RetryPolicy | None = None) -> "ResilientStore":
        """``store`` unchanged if already resilient, else wrapped."""
        if isinstance(store, ResilientStore):
            return store
        return cls(store, retry=retry)

    # -- the object API ------------------------------------------------------

    def put(self, key: str, obj: object) -> int:
        """Atomically persist ``obj`` under ``key`` (write-verify-promote).

        Returns the envelope's length in bytes: what now sits under ``key``.
        """
        data = pack_envelope(obj)
        tmp = key + self.TMP_SUFFIX

        def attempt():
            self.inner.put(tmp, data)
            unpack_envelope(self.inner.get(tmp), key=tmp)
            self.inner.put(key, data)  # promote
            unpack_envelope(self.inner.get(key), key=key)  # promote may tear too
            try:
                self.inner.delete(tmp)
            except (TransientStorageError, KeyError):
                pass  # best-effort cleanup; an orphan tmp key is harmless

        self._with_retries("put", key, attempt, retry_corrupt=True)
        return len(data)

    def get(self, key: str) -> object:
        """Fetch and verify the object under ``key``.

        Raises :class:`NoSuchKeyError` when absent, :class:`CorruptObjectError`
        when the stored envelope fails verification (torn/corrupted at rest).
        """

        def attempt():
            try:
                data = self.inner.get(key)
            except NoSuchKeyError:
                raise
            except KeyError as exc:  # normalize foreign stores' bare KeyError
                raise NoSuchKeyError(key) from exc
            return unpack_envelope(data, key=key)

        return self._with_retries("get", key, attempt, retry_corrupt=False)

    def exists(self, key: str) -> bool:
        """Whether ``key`` is present (metadata op, passed through)."""
        return self.inner.exists(key)

    def list_keys(self, prefix: str = "") -> list[str]:
        """Keys under ``prefix`` (metadata op, passed through)."""
        return self.inner.list_keys(prefix)

    def delete(self, key: str) -> None:
        """Remove ``key`` (:class:`NoSuchKeyError` if absent), with retries."""

        def attempt():
            try:
                self.inner.delete(key)
            except NoSuchKeyError:
                raise
            except KeyError as exc:
                raise NoSuchKeyError(key) from exc

        self._with_retries("delete", key, attempt, retry_corrupt=False)

    def quarantine(self, key: str) -> str:
        """Move a damaged object aside to ``key + '.corrupt'``.

        The damaged bytes are preserved verbatim for post-mortem (moved, not
        deleted) and the original key is freed so a re-executed producer can
        rewrite it. Returns the quarantine key. Emits a
        ``storage.quarantine`` trace event and bumps the
        ``storage.quarantined`` metric.
        """
        dest = key + self.CORRUPT_SUFFIX

        def attempt():
            try:
                damaged = self.inner.get(key)
            except KeyError:
                return  # already gone — quarantine is idempotent
            self.inner.put(dest, damaged)
            try:
                self.inner.delete(key)
            except KeyError:
                pass

        self._with_retries("quarantine", key, attempt, retry_corrupt=False)
        tracer = get_tracer()
        tracer.event("storage.quarantine", key=key, quarantine_key=dest)
        tracer.metrics.counter("storage.quarantined").inc()
        return dest

    # -- retry machinery -----------------------------------------------------

    def _with_retries(self, op: str, key: str, attempt_fn, *, retry_corrupt: bool):
        """Run one storage op under the retry policy.

        ``retry_corrupt`` is True only for writes: a failed write
        verification means the attempt landed damaged and rewriting may
        succeed, whereas a corrupt *read* is damage at rest — retrying
        cannot help, the caller must quarantine and fall back.
        """
        tracer = get_tracer()
        delays = self.retry.delays(self._rng)
        elapsed = 0.0
        last_exc: StorageError | None = None
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                return attempt_fn()
            except TransientStorageError as exc:
                last_exc = exc
            except CorruptObjectError as exc:
                if not retry_corrupt:
                    tracer.event(
                        "storage.corruption",
                        op=op, key=key, reason=exc.reason, retryable=False,
                    )
                    tracer.metrics.counter("storage.corruption").inc()
                    raise
                last_exc = exc
            if attempt > len(delays):
                break  # retry slots exhausted
            delay = delays[attempt - 1]
            if elapsed + delay > self.retry.deadline:
                raise StorageDeadlineError(
                    f"storage {op} {key!r} exceeded its {self.retry.deadline:.3f}s deadline "
                    f"after {attempt} attempt(s) ({elapsed:.3f}s backoff): {last_exc}",
                    op=op, key=key, attempts=attempt, elapsed=elapsed,
                ) from last_exc
            elapsed += delay
            self.backoff_total += delay
            tracer.event(
                "storage.retry",
                op=op, key=key, attempt=attempt, delay=delay,
                error=f"{type(last_exc).__name__}: {last_exc}",
                wasted_cost=delay,
            )
            tracer.metrics.counter("storage.retries").inc()
        raise StorageDeadlineError(
            f"storage {op} {key!r} failed after {self.retry.max_attempts} attempt(s) "
            f"({elapsed:.3f}s backoff): {last_exc}",
            op=op, key=key, attempts=self.retry.max_attempts, elapsed=elapsed,
        ) from last_exc
