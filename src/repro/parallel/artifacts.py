"""The content-addressed on-disk store behind every stage of the flow.

An artifact is addressed by ``(stage, fingerprint)`` where the
fingerprint is a sha256 over a canonical JSON rendering of every input
that can change the stage's output (see :func:`fingerprint`, the
per-stage payload builders in :mod:`repro.flow.pipeline` and the
library key in :mod:`repro.parallel.cache`).  Two codecs share the
store:

* **array stages** (:data:`ARRAY_STAGES` — the characterized
  statistical library and the per-sample libraries) hold named NumPy
  arrays in a compressed ``.npz`` (:meth:`ArtifactStore.load_arrays` /
  :meth:`ArtifactStore.store_arrays`);
* **record stages** — tuning windows, synthesis-run summaries,
  extracted worst paths, design statistics, the minimum-period search
  — hold a gzip-compressed canonical JSON payload
  (:meth:`ArtifactStore.load` / :meth:`ArtifactStore.store`).

Both carry the same ``{version, stage, key}`` envelope (the JSON
document's top level, the ``.npz``'s ``__meta__`` array) and one
durability contract: writes are published atomically
(:func:`repro.storage.publish`), and any entry that cannot be read
back intact — truncated, garbage, wrong stage/key/version — is treated
as a miss and deleted, so a corrupted store heals itself.  Because
writes are atomic and keys are content hashes, concurrent writers (the
sweep fan-out workers) can only ever race to write *identical* bytes.

Entries live under :func:`repro.storage.cache_root` as
``<stage>-<fingerprint[:40]>.json.gz`` or ``.npz``.  Bump
:data:`ARTIFACT_VERSION` whenever a stage's semantics or stored layout
changes meaning.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Tuple, TypeVar

import numpy as np

from repro.observe import get_tracer
from repro.observe.catalog import STORE_ARTIFACT_BYTES, STORE_ARTIFACT_EVENTS
from repro.storage import cache_root, publish

#: Format/semantics version folded into every artifact key and file.
ARTIFACT_VERSION = 2

#: Stages stored as named arrays (``.npz``); every other stage is
#: gzip-JSON.
ARRAY_STAGES = frozenset({"stat", "samples"})

#: File suffix of the record (gzip-JSON) codec.
JSON_SUFFIX = ".json.gz"

#: File suffix of the array (``.npz``) codec.
ARRAY_SUFFIX = ".npz"

_T = TypeVar("_T")


def canonical_json(payload: Any) -> str:
    """Canonical (sorted, compact) JSON rendering of a payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint(payload: Any) -> str:
    """sha256 hex digest of the canonical JSON rendering of ``payload``.

    Payloads must be built from JSON-serializable primitives only;
    every stage folds :data:`ARTIFACT_VERSION` and its stage name into
    the payload so fingerprints can never collide across stages or
    format revisions.
    """
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ArtifactStats:
    """Summary of an artifact store directory's contents."""

    directory: Path
    entries: int
    total_bytes: int
    #: Entry count per stage prefix (``stat``, ``synth``, ...) — the
    #: store-side aggregate mirroring the run manifest's stage ids.
    by_stage: Dict[str, int] = field(default_factory=dict)

    def to_text(self) -> str:
        """One-line human-readable rendering (plus stage breakdown)."""
        kib = self.total_bytes / 1024
        text = f"{self.directory}: {self.entries} artifacts, {kib:.1f} KiB"
        if self.by_stage:
            breakdown = ", ".join(
                f"{count} {stage}" for stage, count in sorted(self.by_stage.items())
            )
            text += f" ({breakdown})"
        return text


def _decode_json(path: Path) -> Tuple[Dict[str, Any], Any]:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        envelope = json.load(handle)
    return envelope, envelope["payload"]


def _decode_arrays(path: Path) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    with np.load(path, allow_pickle=False) as data:
        envelope = json.loads(str(data["__meta__"]))
        arrays = {name: data[name] for name in data.files if name != "__meta__"}
    return envelope, arrays


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


class ArtifactStore:
    """Content-addressed on-disk store of stage artifacts."""

    def __init__(self, directory: Optional[Path] = None):
        self.directory = Path(directory) if directory else cache_root()

    # ------------------------------------------------------------------

    def path_for(self, stage: str, key: str) -> Path:
        """File an artifact of ``(stage, key)`` lives at."""
        suffix = ARRAY_SUFFIX if stage in ARRAY_STAGES else JSON_SUFFIX
        return self.directory / f"{stage}-{key[:40]}{suffix}"

    def has(self, stage: str, key: str) -> bool:
        """Cheap existence probe (no integrity check)."""
        return self.path_for(stage, key).is_file()

    def load(self, stage: str, key: str) -> Optional[Any]:
        """The stored JSON payload of ``(stage, key)``, or ``None`` on miss.

        An entry that exists but cannot be decoded, or whose envelope
        does not match the requested stage/key/version, counts as a
        miss and is deleted.
        """
        return self._read(stage, key, _decode_json)

    def load_arrays(self, stage: str, key: str) -> Optional[Dict[str, np.ndarray]]:
        """The stored arrays of an array stage, or ``None`` on miss
        (same validation and healing as :meth:`load`)."""
        return self._read(stage, key, _decode_arrays)

    def store(self, stage: str, key: str, payload: Any) -> Path:
        """Persist a JSON ``payload`` under ``(stage, key)`` (atomically)."""
        envelope = {**self._envelope(stage, key), "payload": payload}

        def write(raw: BinaryIO) -> None:
            with gzip.open(raw, "wt", encoding="utf-8") as handle:
                json.dump(envelope, handle, sort_keys=True, separators=(",", ":"))

        return self._write(stage, key, write)

    def store_arrays(
        self, stage: str, key: str, arrays: Dict[str, np.ndarray]
    ) -> Path:
        """Persist named arrays under an array stage (atomically)."""
        meta = np.array(canonical_json(self._envelope(stage, key)))
        return self._write(
            stage,
            key,
            lambda handle: np.savez_compressed(handle, __meta__=meta, **arrays),
        )

    def discard(self, stage: str, key: str, error: BaseException) -> None:
        """Heal a bad entry: delete it, count it ``healed`` and attach a
        ``store.self_heal`` event to the open span.

        The loaders call this for an entry they cannot read back; a
        codec calls it for an entry that reads but does not decode
        (e.g. a library entry missing one of its arcs).  Silent healing
        would hide an unhealthy store (disk trouble, version skew,
        races), hence the event.
        """
        path = self.path_for(stage, key)
        _unlink(path)
        STORE_ARTIFACT_EVENTS.labels(event="healed").inc()
        get_tracer().event(
            "store.self_heal",
            stage=stage,
            file=path.name,
            error=type(error).__name__,
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def stats(self) -> ArtifactStats:
        """Entry count, total size and per-stage breakdown."""
        total = 0
        by_stage: Dict[str, int] = {}
        entries = self._entries()
        for path in entries:
            total += path.stat().st_size
            stage = path.name.rsplit("-", 1)[0]
            by_stage[stage] = by_stage.get(stage, 0) + 1
        return ArtifactStats(
            directory=self.directory,
            entries=len(entries),
            total_bytes=total,
            by_stage=by_stage,
        )

    def clear(self) -> int:
        """Delete every entry (and stray temp file); returns the number
        of entries removed."""
        entries = self._entries()
        for path in entries:
            _unlink(path)
        if self.directory.is_dir():
            for path in self.directory.glob("*.tmp"):
                _unlink(path)
        return len(entries)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _envelope(stage: str, key: str) -> Dict[str, Any]:
        return {"version": ARTIFACT_VERSION, "stage": stage, "key": key}

    def _entries(self) -> List[Path]:
        if not self.directory.is_dir():
            return []
        return [
            path
            for suffix in (JSON_SUFFIX, ARRAY_SUFFIX)
            for path in self.directory.glob(f"*{suffix}")
        ]

    def _read(
        self,
        stage: str,
        key: str,
        decode: Callable[[Path], Tuple[Dict[str, Any], _T]],
    ) -> Optional[_T]:
        """Read, validate and return an entry's payload; any defect is
        a miss that heals the entry."""
        path = self.path_for(stage, key)
        if not path.is_file():
            STORE_ARTIFACT_EVENTS.labels(event="miss").inc()
            return None
        try:
            size = path.stat().st_size
            envelope, payload = decode(path)
            expected = self._envelope(stage, key)
            if any(envelope.get(name) != value for name, value in expected.items()):
                raise ValueError("artifact envelope mismatch")
        except Exception as error:  # any unreadable entry is a miss
            self.discard(stage, key, error)
            return None
        STORE_ARTIFACT_EVENTS.labels(event="hit").inc()
        STORE_ARTIFACT_BYTES.labels(direction="read").inc(size)
        return payload

    def _write(self, stage: str, key: str, write: Callable[[BinaryIO], object]) -> Path:
        path = self.path_for(stage, key)
        publish(path, write)
        STORE_ARTIFACT_BYTES.labels(direction="written").inc(path.stat().st_size)
        return path
