import hashlib
import json

import numpy as np
import pytest

from aukit.domain import ContractError
from aukit.sealed import PAYLOAD_ALIGNMENT, read_sealed, write_sealed

MAGIC = b"AUKITTEST"


def sealed_bytes(header, payload):
    """The sealed layout built by concatenation: magic, header length,
    header, payload length, payload, then the SHA-256 of all of it."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = (MAGIC + len(header_bytes).to_bytes(8, "little") + header_bytes
            + len(payload).to_bytes(8, "little") + payload)
    return body + hashlib.sha256(body).digest()


@pytest.mark.parametrize("payload", [b"", b"one bytes object"])
def test_one_or_no_buffer(tmp_path, payload):
    path = tmp_path / "s.bin"
    write_sealed(path, MAGIC, {}, payload)
    assert path.read_bytes() == sealed_bytes({}, payload)
    assert read_sealed(path, MAGIC, "test file") == ({}, payload)


# the arrays a writer may pass: a flat vector, a 2-d table, records, nothing
ARRAY_PAYLOADS = {
    "float64": np.arange(5.0),
    "int32_2d": np.arange(6, dtype="<i4").reshape(2, 3),
    "records": np.zeros(2, dtype=[("i", "<i8"), ("f", "?", (3,))]),
    "empty": np.zeros(0, dtype=np.uint8),
}


@pytest.mark.parametrize("kind", ARRAY_PAYLOADS)
def test_array_payload_is_written_as_its_bytes(tmp_path, kind):
    array = ARRAY_PAYLOADS[kind]
    header = {"b": [1, 2], "a": "x"}
    path = tmp_path / "s.bin"
    write_sealed(path, MAGIC, header, array)
    assert path.read_bytes() == sealed_bytes(header, array.tobytes())
    read_header, payload = read_sealed(path, MAGIC, "test file")
    assert read_header == header
    assert isinstance(payload, memoryview) and payload == array.tobytes()


def test_non_contiguous_buffer_rejected_before_writing(tmp_path):
    path = tmp_path / "s.bin"
    with pytest.raises(ValueError, match="C-contiguous"):
        write_sealed(path, MAGIC, {}, np.arange(6.0)[::2])
    assert not path.exists()


@pytest.mark.parametrize("header_bytes", [b"[1]", b"{", b"\xff"])
def test_bad_header_rejected(tmp_path, header_bytes):
    body = (MAGIC + len(header_bytes).to_bytes(8, "little") + header_bytes
            + (0).to_bytes(8, "little"))
    path = tmp_path / "s.bin"
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ContractError, match="corrupt test file: bad header"):
        read_sealed(path, MAGIC, "test file")


@pytest.mark.parametrize("key", ["", "k", "key", "a longer header key"])
def test_payload_is_an_aligned_writable_view(tmp_path, key):
    path = tmp_path / "s.bin"
    write_sealed(path, MAGIC, {key: 1}, np.arange(7.0))
    _, payload = read_sealed(path, MAGIC, "test file")
    array = np.frombuffer(payload, dtype="<f8")
    assert array.ctypes.data % PAYLOAD_ALIGNMENT == 0
    array[0] = 9.0  # writable, and the file is untouched
    assert np.array_equal(array, [9.0, *range(1, 7)])
    assert read_sealed(path, MAGIC, "test file")[1] == np.arange(7.0).tobytes()
