"""Checkpoint serialization: a JSON manifest plus a little-endian float
blob, byte-stable for identical parameters.

File layout: 8-byte magic ``NSCKPT1\\n``, an 8-byte little-endian header
length, the UTF-8 JSON header, then the raw tensor blob. The header records
the format version, the model spec, the vocabulary fingerprint, and a
manifest of (tensor name, shape, byte offset) entries in parameter order.

Every load compares the vocabulary fingerprint and refuses a mismatch:
token ids are only meaningful relative to the vocabulary they were encoded
with. The blob is always written as float64, so a load gives back the saved
parameters bit for bit; a float32 blob, which earlier builds could write,
still loads (parameters are always float64 in memory).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .dataset_io import write_atomic
from .errors import CheckpointError, DataError
from .neural_layers import ModelSpec, ParamDict, param_shapes

MAGIC = b"NSCKPT1\n"
FORMAT_VERSION = 1

_DTYPES = {"float64": "<f8", "float32": "<f4"}
_HEADER_KEYS = ("model_spec", "vocab_fingerprint", "blob_dtype", "blob_bytes", "tensors")


def save_checkpoint(params: ParamDict, spec: ModelSpec, vocab_fingerprint: str,
                    path: str | Path) -> None:
    """Write ``params`` with their spec and vocabulary fingerprint to
    ``path`` as a float64 blob, through ``write_atomic``."""
    manifest = []
    blob = bytearray()
    for name, tensor in params.items():
        manifest.append(
            {"name": name, "shape": list(tensor.shape), "offset": len(blob)}
        )
        blob += np.ascontiguousarray(tensor, dtype="<f8").tobytes()
    header = {
        "format_version": FORMAT_VERSION,
        "model_spec": spec.to_dict(),
        "vocab_fingerprint": vocab_fingerprint,
        "blob_dtype": "float64",
        "blob_bytes": len(blob),
        "tensors": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    try:
        write_atomic(path, MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + blob)
    except DataError as exc:
        raise CheckpointError(f"cannot write checkpoint: {exc}") from exc


def load_checkpoint(path: str | Path, expected_vocab_fingerprint: str
                    ) -> tuple[ModelSpec, ParamDict]:
    """Reconstruct (spec, params); params are float64 regardless of storage.

    A checkpoint whose vocabulary fingerprint differs from
    ``expected_vocab_fingerprint`` is refused with a ``CheckpointError``.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    header_start = len(MAGIC) + 8
    if len(raw) < header_start:
        raise CheckpointError(
            f"{path}: truncated: {len(raw)} bytes, shorter than magic and header length"
        )
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    try:
        header = json.loads(raw[header_start:header_start + header_len])
    except (RecursionError, ValueError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header: not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format_version {header.get('format_version')} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise CheckpointError(f"{path}: corrupt header: missing keys {missing}")
    # Malformed values (wrong JSON types, bad spec fields, offsets outside
    # the blob) surface as LookupError/TypeError/ValueError.
    try:
        return _read_body(path, header, raw[header_start + header_len:],
                          expected_vocab_fingerprint)
    except (LookupError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {type(exc).__name__}: {exc}") from exc


def _read_body(path: Path, header: dict, blob: bytes,
               expected_vocab_fingerprint: str) -> tuple[ModelSpec, ParamDict]:
    if header["vocab_fingerprint"] != expected_vocab_fingerprint:
        raise CheckpointError(
            f"{path}: vocabulary fingerprint mismatch: checkpoint was trained "
            f"against {header['vocab_fingerprint'][:12]}..., dataset has "
            f"{expected_vocab_fingerprint!s:.12}..."
        )
    if len(blob) != header["blob_bytes"]:
        raise CheckpointError(
            f"{path}: truncated blob: expected {header['blob_bytes']} bytes, "
            f"found {len(blob)}"
        )
    if header["blob_dtype"] not in _DTYPES:
        raise CheckpointError(f"{path}: unknown blob_dtype {header['blob_dtype']!r}")
    np_dtype = np.dtype(_DTYPES[header["blob_dtype"]])
    spec = ModelSpec.from_dict(header["model_spec"])
    shapes = {e["name"]: tuple(e["shape"]) for e in header["tensors"]}
    empty = sorted(name for name, shape in shapes.items() if any(d < 1 for d in shape))
    if empty:
        raise CheckpointError(f"{path}: tensor manifest has a dimension below 1 at: {empty}")
    expected = param_shapes(spec, shapes.get("embedding", (0,))[0])
    if len(header["tensors"]) != len(expected) or shapes != expected:
        wrong = sorted(n for n in shapes.keys() | expected.keys()
                       if shapes.get(n) != expected.get(n))
        raise CheckpointError(
            f"{path}: tensor manifest does not match the {spec.name} spec at: {wrong}"
        )
    params: ParamDict = {}
    for entry in header["tensors"]:
        shape = shapes[entry["name"]]
        tensor = np.frombuffer(blob, dtype=np_dtype, count=int(np.prod(shape)),
                               offset=entry["offset"])
        params[entry["name"]] = tensor.reshape(shape).astype(np.float64)
    return spec, params
