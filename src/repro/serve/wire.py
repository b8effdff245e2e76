"""The binary matrix wire format of the clustering service.

JSON float matrices are the serve path's hidden tax at large n: the client
pays ``tolist()`` + ``json.dumps``, the body is 3-4x the raw bytes, and the
server pays an ``orjson.loads`` on its event loop (~5 ms for a 250x252
matrix) plus an array build before the fingerprint ever sees the data.
This module defines ``application/x-repro-matrix`` — a tiny versioned container (npy-lite)
that ships the raw C-order buffer instead:

.. code-block:: text

    offset  size  field
    0       4     magic  b"RPRM"
    4       1     wire version (currently 1)
    5       3     reserved (zero)
    8       4     header length H (uint32, little-endian)
    12      H     header: UTF-8 JSON object
    12+H    *     payload: the C-order array buffer (or empty)

The header carries ``{"dtype": "<f8", "shape": [rows, cols]}`` plus
frame-specific keys: a request frame adds ``"config"`` (the same partial
``ClusteringConfig.to_dict()`` payload the JSON route accepts), a response
frame carries the result envelope with the flat labels lifted out into the
binary payload.

Decoding is zero-copy by construction: :func:`decode_matrix` returns a
read-only :func:`numpy.frombuffer` view over the request body, and
``repro.cache.fingerprint.matrix_fingerprint`` hashes the same view
through the buffer protocol.  Malformed frames raise
:class:`WireFormatError`, which :func:`decode_cluster_request` (the one
decoder of ``POST /cluster`` bodies, JSON or binary) turns into the
server's HTTP 400 — a truncated or padded body is the client's bug,
never a 500.

Only little-endian (or byteorder-free) numeric dtypes are accepted; the
encoder byte-swaps big-endian inputs so a frame means the same bytes on
every host.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np
import orjson

from repro.serve.httpio import BadRequest

#: The media type negotiated via ``Content-Type`` / ``Accept``.
WIRE_CONTENT_TYPE = "application/x-repro-matrix"

MAGIC = b"RPRM"
WIRE_VERSION = 1

#: magic(4) | version(1) | reserved(3) | header_len(uint32 LE)
_PREFIX = struct.Struct("<4sB3xI")

#: Headers are tiny JSON documents; anything bigger is garbage (the matrix
#: itself travels in the payload, never the header).
_MAX_HEADER_BYTES = 1 * 1024 * 1024

#: dtype kinds a matrix frame may carry (floats, signed/unsigned ints, bool).
_ALLOWED_KINDS = frozenset("fiub")

#: dtype the binary labels payload of a response frame uses.
_LABELS_DTYPE = "<i8"


#: Deepest ``[``/``{`` nesting request JSON may have.  orjson builds its
#: objects recursively with no bound of its own (a well-formed document
#: 100 000 objects deep overflows the C stack), so a deeper document is
#: refused before it is parsed.
MAX_JSON_DEPTH = 1024

#: Every byte but the five that shape a JSON document's nesting.
_NOT_NESTING = bytes(sorted(set(range(256)) - set(b'[]{}"')))

#: Bytes per numpy pass of the nesting scan: small temporaries stay in
#: cache and leave no multi-megabyte allocation behind per request.
_SCAN_CHUNK = 1 << 17


class WireFormatError(ValueError):
    """A malformed ``application/x-repro-matrix`` frame (client error)."""


def _deeper_than(data: bytes, limit: int) -> bool:
    """Whether the JSON document ``data`` nests past ``limit``, unparsed.

    Exact for a valid document.  Nesting never exceeds the number of
    ``[``/``{`` bytes, so most bodies (a matrix of up to about ``limit``
    rows) are cleared by counting those.  Otherwise escapes are dropped,
    so every quote left opens or closes a string, and the brackets
    outside strings are summed.  For an invalid document the answer does
    not matter: orjson rejects it before it builds any object.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    openers = 0
    for start in range(0, raw.size, _SCAN_CHUNK):
        # ``byte | 0x20`` is ``{`` for exactly ``[`` and ``{``.
        openers += np.count_nonzero((raw[start : start + _SCAN_CHUNK] | 0x20) == ord("{"))
        if openers > limit:
            break
    else:
        return False
    if b"\\" in data:
        # Backslash pairs first, then escaped quotes: what is left of a
        # run of backslashes is the one that escapes the byte after it.
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    brackets = b"".join(data.translate(None, _NOT_NESTING).split(b'"')[::2])
    depth = 0
    for start in range(0, len(brackets), _SCAN_CHUNK):
        chunk = np.frombuffer(brackets[start : start + _SCAN_CHUNK], dtype=np.uint8)
        levels = depth + np.cumsum(np.where((chunk == ord("[")) | (chunk == ord("{")), 1, -1))
        if levels.max() > limit:
            return True
        depth = int(levels[-1])
    return False


def loads_request_json(data: bytes) -> Any:
    """Parse request JSON: a ``POST /cluster`` body or a request frame header.

    The one parser both transports share.  orjson keeps to RFC 8259, so
    ``NaN``/``Infinity`` literals, a number that overflows a double
    (``1e400``, a 400-digit integer), a lone surrogate escape and a
    document that is not UTF-8 (or starts with a byte-order mark) are
    refused, as is
    nesting deeper than :data:`MAX_JSON_DEPTH`.  Every refusal is a
    :class:`ValueError` (``orjson.JSONDecodeError`` is one).
    """
    if _deeper_than(data, MAX_JSON_DEPTH):
        raise ValueError(f"nested deeper than {MAX_JSON_DEPTH}")
    return orjson.loads(data)


def _checked_dtype(spec: Any) -> np.dtype:
    """Validate a header dtype string into a concrete little-endian dtype."""
    if not isinstance(spec, str):
        raise WireFormatError(f"header 'dtype' must be a string, got {type(spec).__name__}")
    try:
        dtype = np.dtype(spec)
    except (TypeError, ValueError, SyntaxError) as error:
        # numpy parses comma/tuple specs with ``ast``: malformed ones raise
        # SyntaxError or ValueError rather than TypeError.
        raise WireFormatError(f"unknown dtype {spec!r}") from error
    if dtype.kind not in _ALLOWED_KINDS or dtype.hasobject:
        raise WireFormatError(f"dtype {spec!r} is not a supported numeric dtype")
    if dtype.byteorder == ">":
        raise WireFormatError(f"dtype {spec!r} is big-endian; frames are little-endian")
    return dtype


def _checked_shape(spec: Any) -> Tuple[int, ...]:
    if (
        not isinstance(spec, list)
        or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in spec)
    ):
        raise WireFormatError(f"header 'shape' must be a list of non-negative ints, got {spec!r}")
    if len(spec) > 8:
        raise WireFormatError(f"header 'shape' has {len(spec)} dimensions (max 8)")
    return tuple(spec)


# ---------------------------------------------------------------------------
# Frame container
# ---------------------------------------------------------------------------


def encode_frame(header: Dict[str, Any], payload: bytes = b"") -> bytes:
    """One wire frame from a JSON-safe ``header`` and a raw ``payload``."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(header_bytes) > _MAX_HEADER_BYTES:
        raise WireFormatError(f"frame header exceeds {_MAX_HEADER_BYTES} bytes")
    return b"".join((_PREFIX.pack(MAGIC, WIRE_VERSION, len(header_bytes)), header_bytes, payload))


def decode_frame(
    body: bytes, loads: Callable[[bytes], Any] = json.loads
) -> Tuple[Dict[str, Any], memoryview]:
    """Split a frame into its header dict and a zero-copy payload view.

    ``loads`` parses the header: request frames go through
    :func:`loads_request_json`, like a JSON request body.
    """
    if len(body) < _PREFIX.size:
        raise WireFormatError(
            f"frame is {len(body)} bytes, shorter than the {_PREFIX.size}-byte prefix"
        )
    magic, version, header_len = _PREFIX.unpack_from(body)
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {magic!r}; expected {MAGIC!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}; this build speaks {WIRE_VERSION}")
    if header_len > _MAX_HEADER_BYTES:
        raise WireFormatError(f"frame header length {header_len} exceeds {_MAX_HEADER_BYTES}")
    if _PREFIX.size + header_len > len(body):
        raise WireFormatError("frame truncated inside the header")
    try:
        header = loads(body[_PREFIX.size : _PREFIX.size + header_len])
    except (ValueError, RecursionError) as error:
        raise WireFormatError(f"frame header is not valid JSON: {error}") from error
    if not isinstance(header, dict):
        raise WireFormatError("frame header must be a JSON object")
    return header, memoryview(body)[_PREFIX.size + header_len :]


# ---------------------------------------------------------------------------
# Matrix frames (requests)
# ---------------------------------------------------------------------------


def encode_matrix(matrix: Any, extra: Optional[Dict[str, Any]] = None) -> bytes:
    """Encode one array as a wire frame (C-order, little-endian).

    ``extra`` keys are merged into the header — the request path uses it to
    carry the ``config`` overlay alongside the matrix.
    """
    array = np.asarray(matrix)
    if array.dtype.kind not in _ALLOWED_KINDS or array.dtype.hasobject:
        raise WireFormatError(f"cannot encode dtype {array.dtype.str!r} as a matrix frame")
    if array.dtype.byteorder == ">":
        array = array.astype(array.dtype.newbyteorder("<"))
    # No-op for the already-contiguous arrays clients send; only a strided
    # view actually copies, and the wire format requires C-order bytes.
    array = np.ascontiguousarray(array)  # repro: allow[hot-path-copy]
    header: Dict[str, Any] = {"dtype": array.dtype.str, "shape": list(array.shape)}
    if extra:
        header.update(extra)
    payload = memoryview(array).cast("B") if array.nbytes else b""
    return encode_frame(header, payload)


def decode_matrix(body: bytes) -> Tuple[np.ndarray, Dict[str, Any]]:
    """Decode one matrix frame into ``(array, header)``, zero-copy.

    The returned array is a read-only C-order view over ``body`` — no bytes
    are duplicated; hashing it reads the request buffer directly.  A
    payload that does not match the header's dtype x shape exactly
    (truncated or padded), or a shape numpy cannot index, is a
    :class:`WireFormatError`.
    """
    header, payload = decode_frame(body, loads_request_json)
    dtype = _checked_dtype(header.get("dtype"))
    shape = _checked_shape(header.get("shape"))
    count = 1
    for n in shape:
        count *= n
    expected = count * dtype.itemsize
    if len(payload) != expected:
        kind = "truncated" if len(payload) < expected else "oversized"
        raise WireFormatError(
            f"{kind} payload: dtype {dtype.str!r} x shape {list(shape)} needs "
            f"{expected} bytes, body carries {len(payload)}"
        )
    try:
        array = np.frombuffer(payload, dtype=dtype, count=count).reshape(shape)
    except ValueError as error:
        # A zero-size shape passes the byte check above whatever its other
        # dimensions are; numpy refuses dimensions past its index range.
        raise WireFormatError(f"header 'shape' {list(shape)} is not a valid array shape") from error
    return array, header


def encode_request(matrix: Any, config: Optional[Dict[str, Any]] = None) -> bytes:
    """The binary ``POST /cluster`` body: matrix frame + config in the header."""
    return encode_matrix(matrix, extra={"config": dict(config) if config else {}})


def decode_request(body: bytes) -> Tuple[np.ndarray, Dict[str, Any]]:
    """Decode a binary cluster request into ``(matrix, config_payload)``."""
    matrix, header = decode_matrix(body)
    config = header.get("config", {})
    if not isinstance(config, dict):
        raise WireFormatError("header 'config' must be a JSON object")
    return matrix, config


def decode_cluster_request(body: bytes, media_type: str) -> Tuple[np.ndarray, Dict[str, Any]]:
    """``(matrix, config_payload)`` of one ``POST /cluster`` body.

    The one decoder of cluster requests: a replica fits what it returns
    (after overlaying the config payload onto its default config), and
    the fleet router keys the body on it, so both accept exactly the same
    bodies.  A :data:`WIRE_CONTENT_TYPE` frame or a JSON body decodes to
    a finite, non-empty 2-D float64 matrix (a ``<f8`` frame's zero-copy
    view; every other spelling is upcast) and a config dict.  Anything
    else raises :class:`~repro.serve.httpio.BadRequest` with the message
    a replica answers in its 400.
    """
    if media_type == WIRE_CONTENT_TYPE:
        try:
            matrix, config_payload = decode_request(body)
        except WireFormatError as error:
            raise BadRequest(f"bad {WIRE_CONTENT_TYPE} body: {error}") from error
    else:
        if not body:
            raise BadRequest('missing request body; expected {"matrix": [[...]], "config": {...}}')
        try:
            payload = loads_request_json(body)
        except ValueError as error:
            raise BadRequest(f"request body is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        unknown = sorted(set(payload) - {"matrix", "config"})
        if unknown:
            raise BadRequest(f"unknown request keys {unknown}; expected 'matrix' and optional 'config'")
        if "matrix" not in payload:
            raise BadRequest("request is missing 'matrix'")
        matrix, config_payload = payload["matrix"], payload.get("config", {})
    try:
        matrix = np.asarray(matrix, dtype=float)
    except (TypeError, ValueError) as error:
        raise BadRequest(f"'matrix' is not numeric: {error}") from error
    if matrix.ndim != 2 or 0 in matrix.shape:
        raise BadRequest(f"'matrix' must be 2-D and non-empty; got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise BadRequest("'matrix' contains NaN or infinite entries")
    if not isinstance(config_payload, dict):
        raise BadRequest("'config' must be a JSON object (ClusteringConfig.to_dict payload)")
    return matrix, config_payload


# ---------------------------------------------------------------------------
# Envelope frames (responses)
# ---------------------------------------------------------------------------


def encode_envelope(envelope: Dict[str, Any]) -> bytes:
    """Encode a served response envelope as a wire frame.

    The flat labels (the response's only array payload) are lifted out of
    ``result.labels`` into the binary payload as ``<i8``; everything else
    rides in the header JSON with its key order intact, so decoding and
    re-serializing reproduces the JSON route's envelope byte for byte.
    """
    result = envelope.get("result")
    labels = result.get("labels") if isinstance(result, dict) else None
    if isinstance(labels, list) and labels:
        # The labels arrive as a Python list; materialising the <i8 buffer
        # is the conversion itself, not an avoidable copy.
        array = np.ascontiguousarray(np.asarray(labels, dtype=_LABELS_DTYPE))  # repro: allow[hot-path-copy]
        slimmed_result = dict(result)
        slimmed_result["labels"] = None  # restored from the payload on decode
        slimmed = dict(envelope)
        slimmed["result"] = slimmed_result
        header = {"envelope": slimmed, "labels_dtype": _LABELS_DTYPE}
        return encode_frame(header, memoryview(array).cast("B"))
    return encode_frame({"envelope": envelope, "labels_dtype": None})


def decode_envelope(body: bytes) -> Dict[str, Any]:
    """Decode a binary response envelope back into the JSON route's dict."""
    header, payload = decode_frame(body)
    envelope = header.get("envelope")
    if not isinstance(envelope, dict):
        raise WireFormatError("envelope frame header carries no 'envelope' object")
    labels_dtype = header.get("labels_dtype")
    if labels_dtype is None:
        if len(payload):
            raise WireFormatError("envelope frame has a payload but no 'labels_dtype'")
        return envelope
    dtype = _checked_dtype(labels_dtype)
    if dtype.kind not in "iu":
        raise WireFormatError(f"labels dtype {dtype.str!r} is not an integer dtype")
    if len(payload) % dtype.itemsize:
        raise WireFormatError(
            f"labels payload of {len(payload)} bytes is not a multiple of "
            f"dtype {dtype.str!r} ({dtype.itemsize} bytes)"
        )
    result = envelope.get("result")
    if not isinstance(result, dict):
        raise WireFormatError("envelope frame carries labels but no 'result' object")
    result["labels"] = [int(value) for value in np.frombuffer(payload, dtype=dtype)]
    return envelope
