"""Model checkpoint format, run manifests, and CSV emission.

Checkpoint layout: the magic bytes ``CAPS1`` followed by one record per
tensor: a little-endian uint32 name length, the UTF-8 name, a uint32
rank, one uint32 per extent, then the float64 little-endian values.
Records named ``meta.*`` are separated from parameters on load and carry
the model configuration, so a checkpoint alone is enough to rebuild the
model: the config's encoder and head sections flattened, with the encoder
kind and head type as codes (their index in ``ENCODER_KINDS`` and in
``("baseline", "capsule")``), plus the format version, the truncation
limits n_s and n_w and the embedding dimension e_d. On load they are checked
by the config file's own rules.

CSV files use newline line endings, '.' decimals, and floats rendered at
17 significant digits so equal runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import fields
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .capsule import CapsuleHeadConfig
from .encoders import ENCODER_KINDS, EncoderConfig
from .tensor import Parameter
from .text import write_lines
from .training import (
    AblationRow,
    EpochRecord,
    Metrics,
    SweepCell,
    TrainConfig,
    config_from_dict,
    config_to_dict,
)

MAGIC = b"CAPS1"
FORMAT_VERSION = 1

# A checkpoint's head type code is the type's index here.
_HEAD_TYPES = ("baseline", "capsule")


class ModelFormatError(ValueError):
    pass


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _write_record(fh, name: str, values: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    arr = np.asarray(values, dtype="<f8")
    if arr.ndim and not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<I", arr.ndim))
    for extent in arr.shape:
        fh.write(struct.pack("<I", extent))
    fh.write(arr.tobytes())


def model_meta(config: TrainConfig, e_d: int) -> Dict[str, object]:
    """The checkpoint's metadata: the encoder and head sections of
    ``config_to_dict(config)`` flattened into one dict, the encoder kind and
    the head type stored as their codes, plus the format version, n_s, n_w
    and the embedding dimension e_d."""
    data = config_to_dict(config)
    kind, head_type = data["encoder"].pop("kind"), data["head"].pop("type")
    return {"format_version": FORMAT_VERSION, "encoder_kind": ENCODER_KINDS.index(kind),
            "head_type": _HEAD_TYPES.index(head_type), **data["encoder"], **data["head"],
            "n_s": config.n_s, "n_w": config.n_w, "e_d": e_d}


def _present(meta: Dict[str, object], key: str) -> object:
    if key not in meta:
        raise ModelFormatError(f"checkpoint metadata lacks {key!r}")
    return meta[key]


def _decoded(meta: Dict[str, object], key: str, table: Tuple[str, ...], what: str) -> str:
    code = _present(meta, key)
    if code not in range(len(table)):
        raise ModelFormatError(f"unknown {what} code {code}")
    return table[code]


def config_parts_from_meta(meta: Dict[str, object]) -> Tuple[
        EncoderConfig, Optional[CapsuleHeadConfig], int, int, int]:
    """Rebuild (encoder, head, n_s, n_w, e_d) from checkpoint metadata.

    Checks the format version, the two codes, that every key the model
    needs is present and that e_d is an integer >= 1; the encoder and head
    sections and n_s, n_w then go through ``config_from_dict``, so their
    type and range errors are a config file's. Records the model does not
    need are ignored. Every failure raises ModelFormatError.
    """
    version = _present(meta, "format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported checkpoint format version {version}")
    encoder = {"kind": _decoded(meta, "encoder_kind", ENCODER_KINDS, "encoder kind")}
    head = {"type": _decoded(meta, "head_type", _HEAD_TYPES, "head type")}
    encoder.update((f.name, _present(meta, f.name))
                   for f in fields(EncoderConfig) if f.name != "kind")
    if head["type"] == "capsule":
        head.update((f.name, _present(meta, f.name)) for f in fields(CapsuleHeadConfig))
    n_s, n_w, e_d = (_present(meta, key) for key in ("n_s", "n_w", "e_d"))
    if not isinstance(e_d, int) or e_d < 1:
        raise ModelFormatError(f"checkpoint metadata 'e_d' must be an integer >= 1, got {e_d!r}")
    try:
        config = config_from_dict({"encoder": encoder, "head": head, "n_s": n_s, "n_w": n_w})
    except ValueError as exc:
        raise ModelFormatError(f"checkpoint metadata is invalid: {exc}") from exc
    return config.encoder, config.head, config.n_s, config.n_w, e_d


def save_model(path, params: Dict[str, Parameter], meta: Dict[str, object]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        for key in sorted(meta):
            value = meta[key]
            arr = np.asarray(value, dtype=np.float64)
            _write_record(fh, f"meta.{key}", arr)
        for name in sorted(params):
            _write_record(fh, name, params[name].values)


def _meta_number(value) -> object:
    """An integral metadata value as int; any other (NaN, inf too) as float."""
    value = float(value)
    return int(value) if value.is_integer() else value


def load_model(path) -> Tuple[Dict[str, Parameter], Dict[str, object]]:
    """Read a checkpoint back into a name-to-Parameter dict plus its metadata dict."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:len(MAGIC)] != MAGIC:
        raise ModelFormatError(
            f"{path}: bad magic {blob[:len(MAGIC)]!r}, expected {MAGIC.decode()} header")
    offset = len(MAGIC)
    params: Dict[str, Parameter] = {}
    meta: Dict[str, object] = {}
    seen = set()

    def take(count: int) -> bytes:
        nonlocal offset
        if offset + count > len(blob):
            raise ModelFormatError(f"{path}: truncated record at byte {offset}")
        piece = blob[offset:offset + count]
        offset += count
        return piece

    while offset < len(blob):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise ModelFormatError(f"{path}: record name at byte {offset} is not UTF-8")
        (rank,) = struct.unpack("<I", take(4))
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(rank))
        raw = take(math.prod(shape) * 8)
        try:
            values = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:  # e.g. a zero extent beside huge ones
            raise ModelFormatError(f"{path}: record {name!r} has an unusable shape ({exc})")
        if name in seen:
            raise ModelFormatError(f"{path}: duplicate record {name!r}")
        seen.add(name)
        if name.startswith("meta."):
            if values.ndim > 1:
                raise ModelFormatError(f"{path}: metadata record {name!r} has rank {values.ndim}")
            key = name[len("meta."):]
            meta[key] = (_meta_number(values) if values.ndim == 0
                         else [_meta_number(v) for v in values])
        else:
            params[name] = Parameter(values)
    if not meta and not params:
        raise ModelFormatError(f"{path}: no records found")
    return params, meta


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(config_dict: dict, seed: int, input_paths: Dict[str, str]) -> dict:
    return {
        "config": config_dict,
        "resolved_seed": seed,
        "input_digests": {name: sha256_file(path) for name, path in sorted(input_paths.items())},
        "tool_version": __version__,
    }


def write_json(path, payload: dict) -> None:
    write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])


_METRICS_HEADER = "epoch,split,loss,accuracy,precision,recall"


def _metrics_row(epoch: int, m: Metrics) -> str:
    return ",".join([str(epoch), m.split, fmt_float(m.loss), fmt_float(m.accuracy),
                     fmt_float(m.precision), fmt_float(m.recall)])


def write_metrics_csv(path, history: Sequence[EpochRecord], test: Metrics,
                      test_epoch: int) -> None:
    lines = [_METRICS_HEADER]
    for record in history:
        lines.append(_metrics_row(record.epoch, record.train))
        lines.append(_metrics_row(record.epoch, record.valid))
    lines.append(_metrics_row(test_epoch, test))
    write_lines(path, lines)


def write_ablation_csv(path, rows: Sequence[AblationRow]) -> None:
    lines = ["model,valid_accuracy,test_accuracy,test_precision,test_recall,test_loss"]
    for row in rows:
        values = (row.valid.accuracy, row.test.accuracy, row.test.precision, row.test.recall,
                  row.test.loss)
        lines.append(",".join([row.label] + [fmt_float(v) for v in values]))
    write_lines(path, lines)


def write_sweep_csv(path, cells: Sequence[SweepCell]) -> None:
    lines = ["parameter,value,mean_accuracy,run_accuracies"]
    for cell in cells:
        runs = ";".join(fmt_float(a) for a in cell.accuracies)
        lines.append(",".join([
            cell.parameter, str(cell.value), fmt_float(cell.mean_accuracy), runs,
        ]))
    write_lines(path, lines)


def write_representations_csv(path, labels: np.ndarray, vectors: np.ndarray) -> None:
    """One row per document: label then the flattened stage vector."""
    write_lines(path, (",".join([str(int(label))] + [fmt_float(v) for v in vector])
                       for label, vector in zip(labels, vectors)))
