"""Where on-disk state lives, and how a file is published into it.

Every persistent file the package writes — store entries
(:mod:`repro.parallel.artifacts`), the run ledger
(:mod:`repro.observe.ledger`) and the lint graph cache
(:mod:`repro.lint.graph.cache`) — lives under :func:`cache_root`, and
every file replaced whole goes through :func:`publish`.  The module
sits on the lowest layer so each of those can import it.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable


def cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro"


def publish(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Write ``path`` atomically: ``write`` fills a temporary sibling,
    which :func:`os.replace` then moves into place.

    The rename is atomic on POSIX and Windows, so readers see the old
    file or the new one, never a torn one; concurrent writers of the
    same content can only race to write identical bytes.  On any
    failure (interrupts included) the temporary file is removed and
    the error propagates.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.stem + "-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
