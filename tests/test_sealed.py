import hashlib
import json

import numpy as np
import pytest

from aukit.domain import ContractError
from aukit.ingest import FRAME_STORE_MAGIC, read_frame_store, write_frame_store
from aukit.model import (
    CHECKPOINT_MAGIC,
    FEATURE_MAGIC,
    init_params,
    load_checkpoint,
    load_features,
    save_checkpoint,
    save_features,
)
from aukit.sealed import DIGEST_SIZE, PAYLOAD_ALIGNMENT, read_sealed, write_sealed

from conftest import make_frames

MAGIC = b"AUKITTEST"
VERSION = 1


def read(path):
    """read_sealed of a test file: version 1 and the header fields a and b."""
    return read_sealed(path, MAGIC, "test file", VERSION, ("a", "b"))


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
    header = {"a": 0, "b": 0, "version": VERSION}
    write_sealed(path, MAGIC, header, payload)
    assert path.read_bytes() == sealed_bytes(header, payload)
    assert read(path) == (header, payload)


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
    header = {"b": [1, 2], "version": VERSION, "a": "x"}
    path = tmp_path / "s.bin"
    write_sealed(path, MAGIC, header, array)
    assert path.read_bytes() == sealed_bytes(header, array.tobytes())
    read_header, payload = read(path)
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
        read(path)


@pytest.mark.parametrize("key", ["", "k", "key", "a longer header key"])
def test_payload_is_an_aligned_writable_view(tmp_path, key):
    path = tmp_path / "s.bin"
    write_sealed(path, MAGIC, {key: 1, "version": VERSION}, np.arange(7.0))
    payload = read_sealed(path, MAGIC, "test file", VERSION, (key,))[1]
    array = np.frombuffer(payload, dtype="<f8")
    assert array.ctypes.data % PAYLOAD_ALIGNMENT == 0
    array[0] = 9.0  # writable, and the file is untouched
    assert np.array_equal(array, [9.0, *range(1, 7)])
    assert read_sealed(path, MAGIC, "test file", VERSION, (key,))[1] == (
        np.arange(7.0).tobytes())


@pytest.mark.parametrize("version", [None, 2, "1"],
                         ids=["no_version", "other_version", "string_version"])
def test_version_must_be_the_int_version(tmp_path, version):
    header = {"a": 0, "b": 0}
    if version is not None:
        header["version"] = version
    path = tmp_path / "s.bin"
    write_sealed(path, MAGIC, header, b"")
    with pytest.raises(ContractError, match=f"^test file version mismatch: {version}$"):
        read(path)


def edit_header(path, magic, edit):
    """Reseal the file at `path` with edit(header) applied to its header,
    parsed from the bytes as sealed_bytes lays them out; the edited header."""
    blob = path.read_bytes()
    at = len(magic) + 8
    end = at + int.from_bytes(blob[len(magic):at], "little")
    header = json.loads(blob[at:end])
    edit(header)
    write_sealed(path, magic, header, blob[end + 8:-DIGEST_SIZE])
    return header


# each sealed reader: the magic, a writer of a valid file, the reader, and
# what the reader calls the file and its header fields
SEALED_FILES = {
    "checkpoint": (
        CHECKPOINT_MAGIC,
        lambda path: save_checkpoint(init_params(0, feature_dim=4, hidden=(3,)), path),
        load_checkpoint, "checkpoint", "feature_dim, hidden, layout, seed and version"),
    "feature_file": (
        FEATURE_MAGIC, lambda path: save_features(np.ones((2, 3)), path),
        load_features, "feature file", "shape and version"),
    "frame_store": (
        FRAME_STORE_MAGIC, lambda path: write_frame_store(make_frames(2), path),
        read_frame_store, "frame store", "dtype, format and version"),
}

# header faults every sealed reader rejects; a float version (2.0 == 2) and
# an extra field once passed the version check of feature files and frame
# stores
HEADER_FAULTS = {
    "float_version": lambda header: header.update(version=float(header["version"])),
    "true_version": lambda header: header.update(version=True),
    "missing_field": lambda header: header.pop(min(set(header) - {"version"})),
    "extra_field": lambda header: header.update(extra=0),
}


@pytest.mark.parametrize("fault", HEADER_FAULTS)
@pytest.mark.parametrize("kind", SEALED_FILES)
def test_every_sealed_reader_applies_the_header_rule(tmp_path, kind, fault):
    magic, write, load, what, fields = SEALED_FILES[kind]
    path = tmp_path / "file.bin"
    write(path)
    header = edit_header(path, magic, HEADER_FAULTS[fault])
    with pytest.raises(ContractError) as caught:
        load(path)
    assert str(caught.value) == (  # one line
        f"{what} version mismatch: {header['version']}" if fault.endswith("version")
        else f"corrupt {what}: header fields must be {fields}")
