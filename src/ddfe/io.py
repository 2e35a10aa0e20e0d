"""Bit-exact file formats: scans, labels, density embeddings, checkpoints.

All binary payloads are little-endian regardless of host, matching the
de-facto conventions of LiDAR dataset tooling.  Parsers reject malformed
input with positional diagnostics instead of truncating silently.
"""

from __future__ import annotations

import math
import numbers
from pathlib import Path

import numpy as np

SCAN_RECORD_BYTES = 16  # x, y, z, intensity as float32
DEFAULT_SIGMAS = (10.0, 30.0, 50.0, 70.0)  # beam-density scales (beams re-exports them), in pixels
DENSITY_CHANNELS = len(DEFAULT_SIGMAS)
DENSITY_LABELS = tuple(f"d{int(sigma)}" for sigma in DEFAULT_SIGMAS)
DENSITY_CSV_HEADER = ",".join(DENSITY_LABELS)
LABEL_LIMIT = 1 << 16  # .label files keep class ids in the low 16 bits


def _check_rows(values, width: int, array: str, value: str, where: str) -> np.ndarray:
    """Return values as (N, width) float64; a NaN or inf raises, naming its row."""
    with np.errstate(invalid="ignore"):  # a float32 signalling NaN warns as it widens
        values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != width:
        raise ValueError(f"expected (N, {width}) {array}, got shape {values.shape}")
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"non-finite {value} at {where} {np.flatnonzero(~finite)[0] // width}")
    return values


def format_value(value) -> str:
    """str(value) for a message, but an int past float range by its size:
    str() of an int over 4,300 digits raises."""
    if isinstance(value, numbers.Integral):
        try:
            float(value)
        except OverflowError:
            digits = round(abs(value).bit_length() * math.log10(2))
            return f"{'a negative' if value < 0 else 'an'} int of about {digits} digits"
    return str(value)


def check_count(name: str, value, low: int, high: int | None = None) -> None:
    """Raise unless value is an integer (not a bool) in [low, high] (no upper
    bound where high is None), naming it as `name`."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {format_value(value)}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {format_value(value)}")


def _check_scalar(name: str, value, holds, rule: str) -> float:
    """Return float(value); raise unless value is a real (not a bool) whose float
    is finite and holds(float).  An int too large for a float is not finite."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:
        number = math.nan
    if not (math.isfinite(number) and holds(number)):
        shown = format_value(value) if real else repr(value)
        raise ValueError(f"{name} must be {rule}, got {shown}")
    return number


def check_real(name: str, value, low=-math.inf, high=math.inf) -> float:
    """Return value as a float; raise unless it is a finite real (not a bool) in
    [low, high], naming it as `name`."""
    bounds = "" if (low, high) == (-math.inf, math.inf) else f" and in [{low}, {high}]"
    return _check_scalar(name, value, lambda v: low <= v <= high, "finite" + bounds)


def check_positive(name: str, value) -> float:
    """Return value as a float; raise unless it is a finite real (not a bool) > 0,
    naming it as `name`."""
    return _check_scalar(name, value, lambda v: v > 0, "finite and > 0")


def check_cloud(cloud) -> np.ndarray:
    """Return the cloud as (N, 3) float64; a NaN or inf raises, naming its point index."""
    return _check_rows(cloud, 3, "cloud", "coordinates", "point index")


def check_density(values, channels: int = DENSITY_CHANNELS) -> np.ndarray:
    """Return an (N, channels) density embedding as float64; a NaN or inf
    raises, naming its row, so a writer never makes a file its reader rejects."""
    return _check_rows(values, channels, "densities", "density", "row")


def check_labels(labels, n: int, num_classes: int) -> np.ndarray:
    """Return n int64 class ids in [0, num_classes); a bad id raises, naming its index."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"expected 1-D labels, got shape {labels.shape}")
    if labels.size != n:
        raise ValueError(f"label count {labels.size} does not match point count {n} "
                         f"(first unmatched index {min(labels.size, n)})")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integer class ids, got dtype {labels.dtype}")
    bad = np.flatnonzero((labels < 0) | (labels >= num_classes))
    if bad.size:
        raise ValueError(f"invalid label {labels[bad[0]]} at index {bad[0]}; "
                         f"labels must lie in [0, {num_classes})")
    return labels.astype(np.int64, copy=False)


def read_ascii(path) -> str:
    """Read a text file that must be ASCII, naming the offset of a bad byte."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"non-ASCII byte at offset {exc.start}") from None


def _read_records(path, record_bytes: int, dtype: str) -> np.ndarray:
    """The whole fixed-size records of a binary file, as one flat array."""
    raw = Path(path).read_bytes()
    if len(raw) % record_bytes:
        raise ValueError(f"truncated record at offset {len(raw) - len(raw) % record_bytes}")
    return np.frombuffer(raw, dtype=dtype)


def read_scan(path) -> np.ndarray:
    """Read an (N, 3) cloud from a .bin of float32 (x, y, z, intensity).

    The intensity channel is read and discarded: it is sensor-specific and
    the embedding never uses it.
    """
    return check_cloud(_read_records(path, SCAN_RECORD_BYTES, "<f4").reshape(-1, 4)[:, :3])


def _narrow_float32(values: np.ndarray, what: str, where: str) -> np.ndarray:
    """(N, k) values as little-endian float32.

    A value past float32's range would narrow to inf, which the file's
    reader rejects, so it raises here, naming its row.
    """
    with np.errstate(over="ignore"):
        narrowed = values.astype("<f4")
    overflow = np.flatnonzero(np.isinf(narrowed))
    if overflow.size:
        raise ValueError(f"{what} beyond float32 range at {where} {overflow[0] // values.shape[1]}")
    return narrowed


def write_scan(cloud: np.ndarray, path) -> None:
    """Write an (N, 3) cloud as float32 (x, y, z, 0) records."""
    cloud = check_cloud(cloud)
    records = np.zeros((cloud.shape[0], 4), dtype="<f4")
    records[:, :3] = _narrow_float32(cloud, "coordinate", "point index")
    with open(path, "wb") as fh:
        fh.write(records.tobytes())


def read_labels(path, expected_n: int) -> np.ndarray:
    """Read per-point class ids: low 16 bits of little-endian uint32 words."""
    return check_labels(_read_records(path, 4, "<u4") & 0xFFFF, expected_n, LABEL_LIMIT)


def write_labels(labels: np.ndarray, path) -> None:
    labels = check_labels(labels, np.size(labels), LABEL_LIMIT)
    with open(path, "wb") as fh:
        fh.write(labels.astype("<u4").tobytes())


def write_density(values: np.ndarray, path) -> None:
    """Write an (N, 4) density embedding as row-major float32."""
    records = _narrow_float32(check_density(values), "density", "row")
    with open(path, "wb") as fh:
        fh.write(records.tobytes())


def read_density(path) -> np.ndarray:
    values = _read_records(path, 4 * DENSITY_CHANNELS, "<f4")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        row = bad[0] // DENSITY_CHANNELS
        raise ValueError(f"non-finite density at offset {4 * bad[0]} (row {row})")
    return values.reshape(-1, DENSITY_CHANNELS).astype(np.float64)


def write_density_csv(values: np.ndarray, path) -> None:
    values = check_density(values)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(DENSITY_CSV_HEADER + "\n")
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_density_csv(path) -> np.ndarray:
    lines = read_ascii(path).split("\n")
    header = lines[0].strip()
    if header != DENSITY_CSV_HEADER:
        raise ValueError(
            f"line 1: expected header {DENSITY_CSV_HEADER!r}, got {header!r}"
        )
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(p) for p in line.split(",")]
        except ValueError:
            row = []
        if len(row) != DENSITY_CHANNELS or not np.isfinite(row).all():
            raise ValueError(
                f"line {lineno}: expected {DENSITY_CHANNELS} finite values, got {line!r}"
            )
        rows.append(row)
    return np.asarray(rows, dtype=np.float64).reshape(-1, DENSITY_CHANNELS)


# --- key = value configs --------------------------------------------------
#
# Line-based ASCII shared by sensor and training config files: `#` starts a
# comment, blank lines are skipped, keys may appear in any order, at most once.


def parse_key_values(text: str, types: dict) -> dict:
    """Parse `key = value` lines into {key: types[key](value)}.

    Only \\n ends a line, so line numbers agree with an editor's.  Lines
    without `=`, keys outside `types`, repeated keys and values the type
    rejects all raise ValueError naming the line.
    """
    fields = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            fields[key] = types[key](value)
        except ValueError:
            raise ValueError(f"line {lineno}: invalid value {value!r} for {key!r}") from None
    return fields


# --- checkpoints ----------------------------------------------------------
#
# ASCII header followed by raw little-endian float64 in header order:
#
#     ddfe-checkpoint 3
#     layer.w 4 16
#     layer.b 16
#     scalar
#     <binary payload>
#
# The first line carries the tensor count; each tensor line is its name
# followed by the shape (no dims for a scalar).

_CHECKPOINT_MAGIC = "ddfe-checkpoint"


def save_checkpoint(tensors: dict[str, np.ndarray], path) -> None:
    """Write named float64 arrays; insertion order is preserved on disk."""
    header_lines = [f"{_CHECKPOINT_MAGIC} {len(tensors)}"]
    payload = []
    for name, value in tensors.items():
        if not name or any(ch.isspace() for ch in name):
            raise ValueError(f"tensor name {name!r} must be non-empty, no whitespace")
        arr = np.asarray(value, dtype=np.float64)
        header_lines.append(" ".join([name] + [str(d) for d in arr.shape]))
        payload.append(arr.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(("\n".join(header_lines) + "\n").encode("ascii"))
        fh.write(b"".join(payload))


def _header_int(text: str, what: str) -> int:
    if not text.isdigit():
        raise ValueError(f"{what} must be a non-negative integer, got {text!r}")
    return int(text)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    raw = Path(path).read_bytes()
    try:
        first_end = raw.index(b"\n")
    except ValueError:
        raise ValueError("truncated checkpoint: no header line at offset 0") from None
    magic = raw[:first_end].decode("ascii", errors="replace").split()
    if len(magic) != 2 or magic[0] != _CHECKPOINT_MAGIC:
        raise ValueError(f"not a checkpoint file: line 1 is {raw[:first_end]!r}")
    count = _header_int(magic[1], "line 1: tensor count")
    offset = first_end + 1
    entries: dict[str, tuple[int, ...]] = {}
    for i in range(count):
        try:
            line_end = raw.index(b"\n", offset)
        except ValueError:
            raise ValueError(f"truncated checkpoint header at tensor {i}") from None
        if not raw[offset:line_end].isascii():
            raise ValueError(f"tensor {i}: non-ASCII byte in header line at offset {offset}")
        fields = raw[offset:line_end].decode("ascii").split()
        if not fields:
            raise ValueError(f"empty header line for tensor {i}")
        name = fields[0]
        if name in entries:
            raise ValueError(f"tensor {i}: duplicate name {name!r}")
        entries[name] = tuple(_header_int(d, f"tensor {i} ({name!r}): dim {k}")
                              for k, d in enumerate(fields[1:]))
        offset = line_end + 1
    tensors: dict[str, np.ndarray] = {}
    for name, shape in entries.items():
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(raw):
            raise ValueError(
                f"truncated checkpoint payload for tensor {name!r} at offset {offset}"
            )
        flat = np.frombuffer(raw[offset : offset + nbytes], dtype="<f8")
        try:
            tensors[name] = flat.reshape(shape).astype(np.float64)
        except ValueError as exc:  # zero-size, but too many elements for numpy
            raise ValueError(f"tensor {name!r} at offset {offset}: {exc}") from None
        offset += nbytes
    if offset != len(raw):
        raise ValueError(f"trailing bytes after checkpoint payload at offset {offset}")
    return tensors
