"""Self-contained binary checkpoints.

Layout: an 8-byte magic, a little-endian u32 header length, a compact
JSON header, then the raw float64 payload: the bytes of the model's
parameter buffer (``DegradationNetwork.value``), then the scaler's
``min`` and ``max``. The header carries the model shape, the data subset
and column selection, the label cap and each payload array's name and
shape (``arrays``), so a checkpoint can be evaluated without the
training-time configuration. The header's ``config`` holds the three
``ModelConfig`` fields and the three values the architecture fixes
(``kernel``, ``attention_hidden``, ``regressor_hidden``). The payload is
hashed. One function, ``_header``, builds the header for both sides, and
the rule is that a header loads only if it is the header
``save_checkpoint`` writes for its fields: loading builds the config,
selection and label policy from those fields, refuses any top-level entry
that differs from ``_header``'s, reads the payload into the model's buffer
and verifies the digest before returning anything.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cmapss import _check_subset_id
from .model import DegradationNetwork, ModelConfig
from .preprocess import LabelPolicy, Scaler, SensorSelection

MAGIC = b"TDDNCKPT"
FORMAT_VERSION = 1


class CheckpointError(Exception):
    """Raised when a checkpoint file is malformed or corrupted."""


@dataclass(frozen=True, eq=False)
class LoadedCheckpoint:
    model: DegradationNetwork
    scaler: Scaler
    selection: SensorSelection
    policy: LabelPolicy


def _int(value: object, field: str) -> int:
    """A header integer; a bool, a float or a string is refused on save and on load."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, got {value!r}")
    return value


def _header(
    model: DegradationNetwork, columns: tuple[str, ...], subset_id: str, r_max: int, digest: str
) -> dict:
    """The header ``save_checkpoint`` writes; ``load_checkpoint`` refuses any other."""
    config = model.config
    return {
        "format_version": FORMAT_VERSION,
        "subset_id": subset_id,
        "columns": list(columns),
        "r_max": _int(r_max, "r_max"),
        "config": {
            "window": _int(config.window, "window"),
            "n_features": _int(config.n_features, "n_features"),
            "conv_channels": [_int(c, "conv_channels") for c in config.conv_channels],
            "kernel": config.kernel,
            "attention_hidden": config.attention_hidden,
            "regressor_hidden": config.regressor_hidden,
        },
        # in payload order
        "arrays": [{"name": p.name, "shape": list(p.value.shape)} for p in model.params()]
        + [{"name": name, "shape": [config.n_features]} for name in ("scaler.min", "scaler.max")],
        "payload_sha256": digest,
    }


def save_checkpoint(
    path: str | Path,
    model: DegradationNetwork,
    scaler: Scaler,
    selection: SensorSelection,
    policy: LabelPolicy,
    subset_id: str,
) -> None:
    """Write model parameters plus everything needed to reuse them.

    A header integer that is not an ``int`` (``r_max=125.0``) is a
    ``TypeError`` here, and a selection or scaler whose column count is not
    the model's feature count a ``ValueError``, since ``load_checkpoint``
    would refuse the file. A ``subset_id`` that does not normalize to
    ``selection.subset_id`` (``fd001`` does to ``FD001``) is a ``ValueError``
    too: the file would load, and ``tddn evaluate`` would score that subset
    with a scaler fitted on another. None of these writes to ``path``.
    """
    n_features = model.config.n_features
    if not selection.n_columns == scaler.col_min.size == scaler.col_max.size == n_features:
        raise ValueError(
            f"{selection.n_columns} selected columns and a scaler over "
            f"{scaler.col_min.size}/{scaler.col_max.size} for {n_features} model features"
        )
    if _check_subset_id(subset_id) != selection.subset_id:
        raise ValueError(f"subset {subset_id!r} is not the selection's {selection.subset_id!r}")
    arrays = [model.value, scaler.col_min, scaler.col_max]
    payload = memoryview(np.concatenate(arrays).astype("<f8", copy=False))
    digest = hashlib.sha256(payload).hexdigest()
    header = _header(model, selection.columns, subset_id, policy.r_max, digest)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


def load_checkpoint(path: str | Path) -> LoadedCheckpoint:
    """Read a checkpoint and rebuild the model it describes.

    A header loads only if it is the header ``save_checkpoint`` writes for
    its fields. The config, selection and label policy are built from those
    fields, and any top-level entry that differs from ``_header``'s for them,
    or is not one of its keys, is a ``CheckpointError`` naming the file and
    the entry. The file's own ``subset_id`` is kept, so a ``"fd001"`` saved
    as given loads as ``FD001``.

    The file is opened once. Its magic, header fields and payload length (from
    the file's size) are checked before the model is built, with no weights drawn
    (``rng=None``), so a crafted config cannot allocate more. The weights are
    then read straight into ``model.value`` and the scaler bounds into their
    own array, and those bytes are hashed, so the payload is never held
    twice. A digest mismatch or a short read is a ``CheckpointError`` naming
    the file, raised before anything is returned; a payload of the wrong
    length is reported as a checksum mismatch when its digest fails too.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing checkpoint: {path}")
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(MAGIC) + 4)
        if len(head) < len(MAGIC) + 4:
            raise CheckpointError(f"{path}: truncated before header")
        if head[: len(MAGIC)] != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
        (header_len,) = struct.unpack("<I", head[len(MAGIC) :])
        raw_header = fh.read(header_len)
        if len(raw_header) < header_len:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(raw_header)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        version = header.get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported format version {version!r}"
            )
        try:
            source = header["config"]
            config = ModelConfig(
                window=_int(source["window"], "window"),
                n_features=_int(source["n_features"], "n_features"),
                conv_channels=tuple(_int(c, "conv_channels") for c in source["conv_channels"]),
            )
            # "fd001" from a config file was saved as given; it loads as "FD001"
            subset_id = _check_subset_id(header["subset_id"])
            selection = SensorSelection(subset_id=subset_id, columns=tuple(header["columns"]))
            policy = LabelPolicy(r_max=_int(header["r_max"], "r_max"))
        except KeyError as exc:
            raise CheckpointError(f"{path}: header has no {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        if selection.n_columns != config.n_features:
            raise CheckpointError(
                f"{path}: {selection.n_columns} columns for {config.n_features} model features"
            )

        # checked before the model is built, so a crafted config cannot allocate more
        payload_len = file_size - len(head) - header_len
        expected = 8 * (config.n_parameters + 2 * config.n_features)
        if payload_len != expected:
            digest = hashlib.sha256()
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
            if digest.hexdigest() != header.get("payload_sha256"):
                raise CheckpointError(f"{path}: payload checksum mismatch")
            raise CheckpointError(f"{path}: payload of {payload_len} bytes, expected {expected}")
        model = DegradationNetwork(config, rng=None)
        # the file's own subset_id and digest: "fd001" loads, and the digest is checked below
        written = _header(
            model, selection.columns, header["subset_id"], policy.r_max,
            header.get("payload_sha256"),
        )
        for key in sorted(header.keys() | written.keys()):
            if key not in written:
                raise CheckpointError(f"{path}: unknown header key {key!r}")
            # compared as JSON text, so 2.0 or true does not pass for 2 or 1
            want = json.dumps(written[key], sort_keys=True)
            if json.dumps(header.get(key), sort_keys=True) != want:
                raise CheckpointError(f"{path}: header {key} is not {want}")
        bounds = np.empty(2 * config.n_features)
        digest = hashlib.sha256()
        for array in (model.value, bounds):
            view = memoryview(array).cast("B")
            if fh.readinto(view) != len(view):
                raise CheckpointError(f"{path}: payload ends early; the file shrank while read")
            digest.update(view)
    if digest.hexdigest() != header.get("payload_sha256"):
        raise CheckpointError(f"{path}: payload checksum mismatch")
    if sys.byteorder == "big":
        # the file holds little-endian floats, hashed as stored
        model.value.byteswap(inplace=True)
        bounds.byteswap(inplace=True)
    col_min, col_max = bounds.reshape(2, -1)
    scaler = Scaler(columns=selection.columns, col_min=col_min, col_max=col_max)
    return LoadedCheckpoint(
        model=model,
        scaler=scaler,
        selection=selection,
        policy=policy,
    )
