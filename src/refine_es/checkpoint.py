"""Atomic result files and binary checkpoints.

`save_json_atomic` writes the small JSON results (plan, records, final
parameters, report), `save_text_atomic` other text (log.csv). Python's
float repr round trips exactly, so parameters stored there as decimal text
still reload bit-identically.

`save_checkpoint` writes the per-cell resume state as one uncompressed
`.npz` archive: every ndarray in the payload is stored as its own member in
its own dtype (float64 for parameters and Adam moments, so no decimal
conversion and an exact round trip), and everything else goes in as one JSON
string, member `meta`, in which each array is replaced by a reference
`{"npz": <member>}`. One file keeps the write atomic.

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

FORMAT_VERSION = 2


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


def _split_arrays(node, key: str, arrays: dict):
    """`node` with each ndarray moved into `arrays` under its path."""
    if isinstance(node, np.ndarray):
        arrays[key] = node
        return {"npz": key}
    if isinstance(node, dict):
        return {k: _split_arrays(v, f"{key}.{k}", arrays)
                for k, v in node.items()}
    if isinstance(node, list):
        return [_split_arrays(v, f"{key}.{i}", arrays)
                for i, v in enumerate(node)]
    return node


def _join_arrays(node, arrays: dict):
    if isinstance(node, dict):
        if node.keys() == {"npz"}:
            return arrays[node["npz"]]
        return {k: _join_arrays(v, arrays) for k, v in node.items()}
    if isinstance(node, list):
        return [_join_arrays(v, arrays) for v in node]
    return node


def save_checkpoint(path: str, payload: dict) -> None:
    """Write `payload` (JSON-able values and ndarrays, nested in dicts and
    lists) with `format_version` set, atomically."""
    arrays: dict[str, np.ndarray] = {}
    meta = {k: _split_arrays(v, k, arrays)
            for k, v in {**payload, "format_version": FORMAT_VERSION}.items()}
    text = json.dumps(meta).encode()
    tmp = path + ".tmp"
    # a file handle, not a path: np.savez would append ".npz" to the name
    with open(tmp, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(text, dtype=np.uint8), **arrays)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> dict:
    """Read a checkpoint written by `save_checkpoint`. A file that does not
    read as one (empty, cut short, another kind of file) or has another
    `format_version` raises a `CheckpointError` naming the file."""
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
                              f"this version reads {FORMAT_VERSION}")
    return _join_arrays(meta, arrays)
