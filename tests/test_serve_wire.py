"""Tests for the binary matrix transport (`repro.serve.wire`).

Unit-level: frame round trips across dtypes and memory orders, the
zero-copy guarantee of the decoder, malformed-frame rejection, and the
response-envelope byte-identity contract.  Integration-level: a live
server accepting/emitting ``application/x-repro-matrix``, binary and JSON
submissions of the same matrix hitting the same cache entry, and 400
(never 500) on truncated/oversized bodies.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import ClusteringConfig
from repro.cache import clear_result_caches, matrix_fingerprint
from repro.datasets.synthetic import make_time_series_dataset
from repro.serve import (
    WIRE_CONTENT_TYPE,
    ClusteringServer,
    ServeClient,
    ServerError,
    WireFormatError,
    wire,
)
from tests.conftest import tie_heavy_series


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_result_caches()
    yield
    clear_result_caches()


@pytest.fixture(scope="module")
def series():
    return make_time_series_dataset(
        num_objects=36, length=32, num_classes=3, noise=1.0, seed=19
    ).data


def _start_server(**kwargs):
    defaults = dict(
        port=0,
        default_config=ClusteringConfig(cache=True, num_clusters=3, prefix=2),
        fit_workers=2,
    )
    defaults.update(kwargs)
    server = ClusteringServer(**defaults)
    return server, server.start_in_background()


# ---------------------------------------------------------------------------
# Frame round trips
# ---------------------------------------------------------------------------


class TestMatrixFrames:
    @pytest.mark.parametrize(
        "dtype", ["<f8", "<f4", "<i8", "<i4", "<i2", "<u4", "|u1", "|b1"]
    )
    def test_round_trip_across_dtypes(self, dtype):
        rng = np.random.default_rng(7)
        matrix = (rng.normal(size=(9, 5)) * 10).astype(np.dtype(dtype))
        decoded, header = wire.decode_matrix(wire.encode_matrix(matrix))
        assert decoded.dtype == matrix.dtype
        assert np.array_equal(decoded, matrix)
        assert header["shape"] == [9, 5]

    def test_fortran_order_input_round_trips_as_c_order(self):
        matrix = np.asfortranarray(np.arange(24.0).reshape(4, 6))
        assert not matrix.flags.c_contiguous
        decoded, _header = wire.decode_matrix(wire.encode_matrix(matrix))
        assert decoded.flags.c_contiguous
        assert np.array_equal(decoded, matrix)

    def test_big_endian_input_is_byte_swapped_on_encode(self):
        matrix = np.arange(6.0).reshape(2, 3).astype(">f8")
        decoded, header = wire.decode_matrix(wire.encode_matrix(matrix))
        assert header["dtype"] == "<f8"
        assert np.array_equal(decoded, matrix.astype("<f8"))

    def test_empty_and_zero_size_shapes(self):
        decoded, _ = wire.decode_matrix(wire.encode_matrix(np.empty((0, 4))))
        assert decoded.shape == (0, 4)

    def test_decode_is_zero_copy(self):
        """The acceptance-criteria no-copy assertion: the decoded matrix is
        a read-only view over the request body's bytes, not a copy."""
        matrix = np.random.default_rng(3).normal(size=(32, 16))
        body = wire.encode_matrix(matrix)
        decoded, _header = wire.decode_matrix(body)
        body_bytes = np.frombuffer(body, dtype=np.uint8)
        assert np.shares_memory(decoded, body_bytes)
        assert not decoded.flags.owndata
        assert not decoded.flags.writeable
        # The view lies entirely inside the body buffer.
        body_start = body_bytes.__array_interface__["data"][0]
        view_start = decoded.__array_interface__["data"][0]
        assert body_start <= view_start
        assert view_start + decoded.nbytes <= body_start + len(body)

    def test_decoded_view_fingerprints_without_copy_and_matches(self):
        matrix = np.random.default_rng(5).normal(size=(20, 10))
        decoded, _ = wire.decode_matrix(wire.encode_matrix(matrix))
        # matrix_fingerprint hashes the read-only view through the buffer
        # protocol; the key must equal the owned-copy key (cache sharing).
        assert matrix_fingerprint(decoded) == matrix_fingerprint(matrix.copy())

    def test_request_frame_carries_config(self):
        body = wire.encode_request(np.ones((3, 3)), {"num_clusters": 2, "prefix": 1})
        matrix, config = wire.decode_request(body)
        assert matrix.shape == (3, 3)
        assert config == {"num_clusters": 2, "prefix": 1}
        _matrix, empty = wire.decode_request(wire.encode_request(np.ones((3, 3))))
        assert empty == {}


class TestMalformedFrames:
    def test_truncated_payload_rejected(self):
        body = wire.encode_matrix(np.ones((4, 4)))
        with pytest.raises(WireFormatError, match="truncated"):
            wire.decode_matrix(body[:-8])

    def test_oversized_payload_rejected(self):
        body = wire.encode_matrix(np.ones((4, 4)))
        with pytest.raises(WireFormatError, match="oversized"):
            wire.decode_matrix(body + b"\x00" * 8)

    def test_bad_magic_version_and_header(self):
        body = wire.encode_matrix(np.ones((2, 2)))
        with pytest.raises(WireFormatError, match="magic"):
            wire.decode_matrix(b"XXXX" + body[4:])
        with pytest.raises(WireFormatError, match="version"):
            wire.decode_matrix(body[:4] + b"\x63" + body[5:])
        with pytest.raises(WireFormatError, match="shorter"):
            wire.decode_matrix(b"RPRM")
        with pytest.raises(WireFormatError, match="exceeds"):
            wire.decode_frame(body[:10] + b"\xff\xff" + body[12:])
        # header_len below the cap but past the end of the frame
        patched = body[:8] + struct.pack("<I", len(body)) + body[12:]
        with pytest.raises(WireFormatError, match="truncated inside the header"):
            wire.decode_frame(patched)

    def test_hostile_headers_rejected(self):
        padding = b"\x00" * 32
        for header, payload in (
            ({"dtype": "<f8", "shape": "nope"}, padding),
            ({"dtype": "<f8", "shape": [-1, 4]}, padding),
            ({"dtype": "<f8", "shape": [2.5]}, padding),
            ({"dtype": "<f8", "shape": [1] * 9}, padding),
            ({"dtype": ">f8", "shape": [2, 2]}, padding),
            ({"dtype": "O", "shape": [2, 2]}, padding),
            ({"dtype": "<U8", "shape": [2, 2]}, padding),
            ({"dtype": 12, "shape": [2, 2]}, padding),
            # numpy's comma-spec parser raises ValueError/SyntaxError, not TypeError
            ({"dtype": "2u>8", "shape": [2, 2]}, padding),
            ({"dtype": ",M", "shape": [2, 2]}, padding),
            ({"dtype": "<f8", "shape": [10**9, 10**9]}, padding),  # absurd size vs body
            # Zero-size shapes pass the byte check with an empty payload;
            # numpy then refuses the dimensions themselves.
            ({"dtype": "<f8", "shape": [0, 10**19]}, b""),
            ({"dtype": "<f8", "shape": [0, 2**62, 2**62]}, b""),
        ):
            with pytest.raises(WireFormatError):
                wire.decode_matrix(wire.encode_frame(header, payload))

    def test_non_json_header_rejected(self):
        prefix = struct.pack("<4sB3xI", b"RPRM", 1, 5)
        with pytest.raises(WireFormatError, match="JSON"):
            wire.decode_frame(prefix + b"{oops")
        nested = b"[" * 200_000  # under the header cap, past the parser's recursion limit
        with pytest.raises(WireFormatError, match="JSON"):
            wire.decode_frame(struct.pack("<4sB3xI", b"RPRM", 1, len(nested)) + nested)

    def test_request_header_refuses_what_a_json_body_refuses(self):
        for config in (b'{"num_clusters": NaN}', b'{"num_clusters": 1e400}', b'{"linkage": "\\ud800"}'):
            header = b'{"dtype": "<f8", "shape": [1, 1], "config": ' + config + b"}"
            body = struct.pack("<4sB3xI", b"RPRM", 1, len(header)) + header + bytes(8)
            with pytest.raises(WireFormatError, match="not valid JSON"):
                wire.decode_request(body)

    def test_object_dtype_refused_on_encode(self):
        with pytest.raises(WireFormatError, match="dtype"):
            wire.encode_matrix(np.array([{"a": 1}], dtype=object))


def _json_depth(value) -> int:
    if isinstance(value, list):
        return 1 + max(map(_json_depth, value), default=0)
    if isinstance(value, dict):
        return 1 + max(map(_json_depth, value.values()), default=0)
    return 0


_NASTY_TEXT = st.text(alphabet='[]{}"\\a\u00e9', max_size=8)


class TestNestingScan:
    """The depth bound runs on raw bytes before orjson sees them, so it must
    read brackets inside strings, escaped quotes and backslash runs the way
    a JSON parser does."""

    @settings(max_examples=300, deadline=None)
    @given(
        value=st.recursive(
            st.none() | st.integers() | _NASTY_TEXT,
            lambda children: st.lists(children, max_size=3)
            | st.dictionaries(_NASTY_TEXT, children, max_size=3),
            max_leaves=30,
        ),
        ensure_ascii=st.booleans(),
    )
    def test_exact_on_valid_documents(self, value, ensure_ascii):
        data = json.dumps(value, ensure_ascii=ensure_ascii).encode("utf-8")
        depth = _json_depth(value)
        assert not wire._deeper_than(data, depth)
        assert depth == 0 or wire._deeper_than(data, depth - 1)

    def test_depth_across_scan_chunks(self):
        wide = b"[" + b"[]," * 70_000 + b'[[{"a": "]]]]"}]]]'
        assert not wire._deeper_than(wide, 4) and wire._deeper_than(wide, 3)
        tall = b"[" * 70_000 + b"]" * 70_000
        assert not wire._deeper_than(tall, 70_000) and wire._deeper_than(tall, 69_999)


class TestEnvelopeFrames:
    def test_round_trip_is_byte_identical(self):
        envelope = {
            "result": {
                "method": "tmfg-dbht",
                "config": {"prefix": 2},
                "labels": [2, 0, 1, 1, 0],
                "num_clusters": 3,
                "step_seconds": {"fit": 0.25},
                "extras": {},
            },
            "serving": {"batch_size": 3, "queue_seconds": 0.001},
        }
        decoded = wire.decode_envelope(wire.encode_envelope(envelope))
        assert json.dumps(decoded) == json.dumps(envelope)

    def test_none_labels_round_trip(self):
        envelope = {"result": {"method": "x", "labels": None}, "serving": {}}
        decoded = wire.decode_envelope(wire.encode_envelope(envelope))
        assert json.dumps(decoded) == json.dumps(envelope)

    def test_payload_without_dtype_marker_rejected(self):
        blob = wire.encode_frame({"envelope": {"result": {}}, "labels_dtype": None})
        with pytest.raises(WireFormatError):
            wire.decode_envelope(blob + b"\x00" * 8)

    @pytest.mark.parametrize(
        "labels_dtype, payload",
        [
            ("<f8", np.array([np.nan]).tobytes()),
            ("<f8", np.array([np.inf]).tobytes()),
            ("<f4", np.array([1.0], dtype="<f4").tobytes()),
            ("|b1", b"\x01"),
        ],
        ids=["f8-nan", "f8-inf", "f4", "bool"],
    )
    def test_non_integer_labels_dtype_rejected(self, labels_dtype, payload):
        header = {"envelope": {"result": {"labels": None}}, "labels_dtype": labels_dtype}
        with pytest.raises(WireFormatError, match="integer"):
            wire.decode_envelope(wire.encode_frame(header, payload))


class TestDecoderFuzz:
    """Any bytes either decode or raise :class:`WireFormatError`: a hostile
    frame must become a 400, never an unhandled exception."""

    _DTYPES = (
        st.sampled_from(["<f8", "<f4", "<f2", "<i8", "<u4", "|u1", "|b1"])
        | st.sampled_from([">f8", "O", "<U8", "c16", "V0", "f8,f8", "(2,)f8", ",M", "2u>8"])
        | st.text(max_size=6)
        | st.integers()
        | st.none()
    )
    _SHAPES = st.lists(
        st.sampled_from([0, 1, 2, 3, 10**19, 2**31, 2**62, 2**63, 2**64]), max_size=10
    ) | st.sampled_from([None, "2x2", [2.5], [-1, 2], [True]])
    _REQUEST_HEADERS = st.fixed_dictionaries(
        {"dtype": _DTYPES, "shape": _SHAPES},
        optional={"config": st.just({"prefix": 1}) | st.integers()},
    )
    _ENVELOPE_HEADERS = st.fixed_dictionaries(
        {"envelope": st.just({"result": {}}) | st.integers(), "labels_dtype": _DTYPES}
    )
    #: Whole words (special floats, all-ones, zeros) as well as random bytes.
    _PAYLOADS = st.binary(max_size=64) | st.lists(
        st.sampled_from(
            [b"\x00" * 8, b"\xff" * 8] + [np.array([v]).tobytes() for v in (np.nan, np.inf, -np.inf)]
        ),
        max_size=3,
    ).map(b"".join)

    @settings(max_examples=300, deadline=None)
    @given(
        fault=st.none() | st.tuples(st.sampled_from([0, 1, 2]), st.integers(0, 2**32 - 1)),
        header=_REQUEST_HEADERS | _ENVELOPE_HEADERS,
        payload=_PAYLOADS,
    )
    @example(fault=None, header={"dtype": "<f8", "shape": [0, 10**19]}, payload=b"")
    @example(
        fault=None,
        header={"envelope": {"result": {}}, "labels_dtype": "<f8"},
        payload=np.array([np.nan]).tobytes(),
    )
    def test_decoders_raise_only_wire_format_errors(self, fault, header, payload):
        header_bytes = json.dumps(header).encode("utf-8")
        prefix = [wire.MAGIC, wire.WIRE_VERSION, len(header_bytes)]
        if fault is not None:
            # Corrupt one prefix field: the magic, the version or the length.
            field, value = fault
            prefix[field] = value.to_bytes(4, "little") if field == 0 else value % (
                256 if field == 1 else 2**32
            )
        body = struct.pack("<4sB3xI", *prefix) + header_bytes + payload
        for decode in (wire.decode_request, wire.decode_envelope):
            try:
                decode(body)
            except WireFormatError:
                pass


# ---------------------------------------------------------------------------
# Live-server integration
# ---------------------------------------------------------------------------


class TestBinaryTransportIntegration:
    def test_binary_and_json_requests_serve_identical_results(self, series):
        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                envelope_json = client.cluster(series)
                envelope_binary = client.cluster(series, binary=True)
            assert json.dumps(envelope_json["result"]) == json.dumps(
                envelope_binary["result"]
            )
        finally:
            handle.stop()

    def test_tie_heavy_matrices_key_and_serve_identically_in_both_transports(
        self, monkeypatch
    ):
        """A JSON POST and a binary POST of one tie-heavy matrix look up one
        result-cache key and serve byte-identical ``result`` payloads."""
        cases = tie_heavy_series()
        keys = []
        real_lookup = ClusteringServer._lookup

        def recording_lookup(matrix, config):
            found = real_lookup(matrix, config)
            keys.append(found[2])
            return found

        monkeypatch.setattr(ClusteringServer, "_lookup", staticmethod(recording_lookup))
        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                for name, matrix in cases.items():
                    # tolist() keeps an int matrix's JSON numbers integral,
                    # and the binary frame carries it as <i8.
                    json_body = json.dumps({"matrix": matrix.tolist()}).encode()
                    served_json = client.request(
                        "POST", "/cluster", json_body, {"Content-Type": "application/json"}
                    )
                    served_binary = client.request(
                        "POST",
                        "/cluster",
                        wire.encode_request(matrix),
                        {"Content-Type": WIRE_CONTENT_TYPE, "Accept": WIRE_CONTENT_TYPE},
                    )
                    assert keys[-2] == keys[-1], name
                    assert json.dumps(served_json["result"]) == json.dumps(
                        served_binary["result"]
                    ), name
        finally:
            handle.stop()
        assert len(set(keys)) == len(cases)

    def test_binary_submission_hits_the_json_cache_entry(self, series):
        """The fingerprint acceptance test: both transports of the same
        matrix address the same content-addressed cache entry."""
        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                client.cluster(series)  # JSON: fits and stores
                before = client.metrics()["cache"]
                client.cluster(series, binary=True)  # binary: must be a hit
                after = client.metrics()["cache"]
            assert after["hits"] == before["hits"] + 1
            assert after["stores"] == before["stores"] == 1
        finally:
            handle.stop()

    def test_binary_request_without_accept_gets_json_response(self, series):
        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                body = client.encode_cluster_body_binary(series)
                envelope = client.request(
                    "POST", "/cluster", body, {"Content-Type": WIRE_CONTENT_TYPE}
                )
            assert envelope["result"]["num_clusters"] == 3
        finally:
            handle.stop()

    def test_binary_config_overlay_and_float32_upcast(self, series):
        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                envelope = client.cluster(
                    series.astype(np.float32), config={"num_clusters": 2}, binary=True
                )
                for stale in (
                    {"warm_start": True}, {"apsp_method": "incremental"},
                    {"kernel": "numpy"}, {"landmarks": 8}, {"apsp_method": "dijkstra"},
                ):
                    with pytest.raises(ServerError) as excinfo:
                        client.cluster(series, config=stale, binary=True)
                    assert excinfo.value.status == 400
            assert envelope["result"]["num_clusters"] == 2
        finally:
            handle.stop()

    def test_malformed_binary_bodies_answer_400_not_500(self, series):
        _server, handle = _start_server()
        headers = {"Content-Type": WIRE_CONTENT_TYPE}
        try:
            with ServeClient(handle.host, handle.port) as client:
                good = client.encode_cluster_body_binary(series)
                zero_size = wire.encode_frame({"dtype": "<f8", "shape": [0, 10**19]})
                for bad in (good[:-16], good + b"\x00" * 16, b"RPRM", b"garbage", zero_size):
                    with pytest.raises(ServerError) as excinfo:
                        client.request("POST", "/cluster", bad, headers)
                    assert excinfo.value.status == 400
                # NaN and 1-D payloads fail validation, not with a crash.
                nan = client.encode_cluster_body_binary(np.full((4, 4), np.nan))
                with pytest.raises(ServerError, match="NaN") as excinfo:
                    client.request("POST", "/cluster", nan, headers)
                assert excinfo.value.status == 400
                flat = wire.encode_request(np.arange(8.0))
                with pytest.raises(ServerError, match="2-D") as excinfo:
                    client.request("POST", "/cluster", flat, headers)
                assert excinfo.value.status == 400
                # The server is still healthy afterwards.
                assert client.healthz()["status"] == "ok"
        finally:
            handle.stop()

    def test_reserved_config_fields_rejected_on_binary_route(self, series, tmp_path):
        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                body = wire.encode_request(series, {"cache_dir": str(tmp_path / "evil")})
                with pytest.raises(ServerError, match="operator-controlled") as excinfo:
                    client.request(
                        "POST", "/cluster", body, {"Content-Type": WIRE_CONTENT_TYPE}
                    )
                assert excinfo.value.status == 400
        finally:
            handle.stop()
