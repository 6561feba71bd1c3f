"""Atomic result files and binary checkpoints.

`save_json_atomic` writes the small JSON results (plan, records, final
parameters, report), `save_text_atomic` other text (log.csv). Python's
float repr round trips exactly, so parameters stored there as decimal text
still reload bit-identically.

`save_checkpoint` writes the per-cell resume state, the flat dict that a
stage hands out plus the cell's fields, as one uncompressed `.npz` archive
(format 4): each top-level ndarray is stored as its own member under its own
key, in its own dtype (float64 for parameters and Adam moments, so no
decimal conversion and an exact round trip), and everything else goes in as
one JSON string, member `meta`. One file keeps the write atomic.
`load_checkpoint` returns `{**meta, **arrays}`. Format 4 is format 3's
layout with the center return of an ES record measured at the start of its
generation, not after its update. It is the only format read back: this
module alone knows which versions can be read, and a file of any other
version is refused.

All writers go to `<path>.tmp`, flush, fsync and rename into place, so an
interrupted write leaves the previous file intact; a stale `.tmp` is never
read. A checkpoint is resume state only: once a cell's record.json is
durable, the pipeline deletes the checkpoint and any stale `.tmp`.
"""

from __future__ import annotations

import json
import os
import zipfile

import numpy as np

from .errors import CheckpointError

FORMAT_VERSION = 4


def save_text_atomic(path: str, text: str) -> None:
    """Write `text` to `path` as is, newlines untranslated, atomically."""
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def save_json_atomic(path: str, payload: dict) -> None:
    # one-shot dumps takes the C encoder
    save_text_atomic(path, json.dumps(payload))


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def save_checkpoint(path: str, payload: dict) -> None:
    """Write the flat dict `payload`, its top-level ndarrays as members and
    its other values as JSON, with `format_version` set, atomically."""
    arrays = {k: v for k, v in payload.items() if isinstance(v, np.ndarray)}
    meta = {k: v for k, v in payload.items() if k not in arrays}
    text = json.dumps({**meta, "format_version": FORMAT_VERSION}).encode()
    tmp = path + ".tmp"
    # a file handle, not a path: np.savez would append ".npz" to the name
    with open(tmp, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(text, dtype=np.uint8), **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> dict:
    """Read a checkpoint as `{**meta, **arrays}`. A file that does not read
    as one (empty, cut short, another kind of file) or has a
    `format_version` other than `FORMAT_VERSION` raises a `CheckpointError`
    naming the file."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(arrays.pop("meta").tobytes())
        version = meta.get("format_version")
    except (AttributeError, EOFError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile) as exc:
        raise CheckpointError(
            f"{path}: unreadable checkpoint ({type(exc).__name__}: {exc}); "
            f"delete it to restart the cell") from exc
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: field 'format_version' is {version!r}, "
                              f"this version reads only {FORMAT_VERSION}; "
                              f"delete it to restart the cell")
    return {**meta, **arrays}
