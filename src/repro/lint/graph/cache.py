"""Content-hash cache for the whole-program graph.

Building the graph parses every file under ``src/repro`` — ~0.7 s
today and growing with the tree.  A lint run that changed nothing
should not pay that: the cache keys a JSON-serialized
:class:`~repro.lint.graph.model.ProgramGraph` on a digest of the
source tree (sorted relative paths + per-file content hashes + the
model schema version), so a warm run hashes the files, loads one JSON
document, and parses nothing.

The cache lives in ``lintgraph/`` under the root every on-disk file
of the package shares (:func:`repro.storage.cache_root`), and writes
go through :func:`repro.storage.publish`, so two concurrent lint runs
never expose a torn cache entry.  Caching is best effort: a cache
directory that cannot be written only costs the next run a rebuild.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro.lint.engine import iter_python_files
from repro.lint.graph.builder import build_graph
from repro.lint.graph.model import GRAPH_SCHEMA_VERSION, ProgramGraph
from repro.storage import cache_root, publish


@dataclass
class GraphBuildReport:
    """How a graph was obtained — callers print/assert on this."""

    digest: str
    from_cache: bool
    #: Files parsed this run (0 on a cache hit — warm runs re-parse
    #: nothing; the warm-speed test pins this).
    parsed_files: int


def graph_cache_dir() -> Path:
    """``lintgraph/`` under :func:`repro.storage.cache_root`."""
    return cache_root() / "lintgraph"


def source_tree_hash(
    paths: Sequence[Path], root: Optional[Path] = None
) -> str:
    """Digest of every python file under ``paths`` (path + content)."""
    digest = hashlib.sha256()
    digest.update(f"graph-schema:{GRAPH_SCHEMA_VERSION}\n".encode("utf-8"))
    for file_path in iter_python_files(paths):
        display = file_path
        if root is not None:
            try:
                display = file_path.relative_to(root)
            except ValueError:
                display = file_path
        digest.update(display.as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(hashlib.sha256(file_path.read_bytes()).digest())
    return digest.hexdigest()


def load_cached_graph(
    digest: str, cache_dir: Optional[Path] = None
) -> Optional[ProgramGraph]:
    """The cached graph for a tree digest, or ``None``."""
    directory = cache_dir if cache_dir is not None else graph_cache_dir()
    cache_path = directory / f"{digest}.json"
    try:
        payload = json.loads(cache_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("schema") != GRAPH_SCHEMA_VERSION:
        return None  # model changed; rebuild rather than misread
    try:
        return ProgramGraph.from_payload(payload)
    except (KeyError, TypeError, ValueError):
        return None


def store_graph(
    digest: str, graph: ProgramGraph, cache_dir: Optional[Path] = None
) -> None:
    """Publish a graph under its tree digest (atomic, best effort)."""
    directory = cache_dir if cache_dir is not None else graph_cache_dir()
    blob = json.dumps(
        graph.to_payload(), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    try:
        publish(directory / f"{digest}.json", lambda handle: handle.write(blob))
    except OSError:  # pragma: no cover - read-only cache dir etc.
        pass


def build_graph_cached(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    cache_dir: Optional[Path] = None,
) -> Tuple[ProgramGraph, GraphBuildReport]:
    """The graph for a tree: cached when the content hash matches."""
    digest = source_tree_hash(paths, root=root)
    cached = load_cached_graph(digest, cache_dir=cache_dir)
    if cached is not None:
        return cached, GraphBuildReport(
            digest=digest, from_cache=True, parsed_files=0
        )
    graph = build_graph(paths, root=root)
    store_graph(digest, graph, cache_dir=cache_dir)
    return graph, GraphBuildReport(
        digest=digest,
        from_cache=False,
        parsed_files=len(graph.modules) + len(graph.syntax_errors),
    )
