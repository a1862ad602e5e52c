"""Sealed binary files: a JSON header and a payload under a SHA-256 trailer.

Layout: magic, header length, JSON header (sorted keys), payload length,
payload, then the SHA-256 of everything before it. Checkpoints, frame
stores and feature files share this framing and read_sealed's one header
rule; each keeps its own magic, version and header fields.

Neither direction copies the payload. A writer hands over the payload as
one buffer (bytes or a C-contiguous array), which is hashed and written as
it is; a reader gets the file as one buffer, checks the digest over a view
of it and receives the payload as a view into it.
"""

import hashlib
import json
import os

import numpy as np

from .domain import ContractError

DIGEST_SIZE = 32

# read_sealed places a payload at an address that is a multiple of this
PAYLOAD_ALIGNMENT = 64


def write_sealed(path, magic, header, payload):
    """Write header (a JSON-able dict) and the payload buffer (bytes or a
    C-contiguous array) as one sealed file."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    view = memoryview(payload)
    if not view.c_contiguous:
        raise ValueError("sealed payload buffer must be C-contiguous")
    pieces = [magic, len(header_bytes).to_bytes(8, "little"), header_bytes,
              view.nbytes.to_bytes(8, "little"), view]
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for piece in pieces:
            digest.update(piece)
            fh.write(piece)
        fh.write(digest.digest())


def read_sealed(path, magic, what, version, fields):
    """(header, payload) of a sealed file; ContractError names it as `what`.

    The header must hold exactly the int `version` (not 2.0 or true) and
    the names in `fields`; the reader checks what its fields hold. The
    payload is a writable memoryview into the file's one buffer, placed so
    that the payload starts on a PAYLOAD_ALIGNMENT boundary.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(magic) + 8)
        # where the payload starts if the header length is sound (checked below)
        payload_at = len(head) + 8 + int.from_bytes(head[len(magic):], "little")
        buffer = np.empty(size + PAYLOAD_ALIGNMENT, dtype=np.uint8)
        start = -(buffer.ctypes.data + min(payload_at, size)) % PAYLOAD_ALIGNMENT
        fh.seek(0)
        blob = memoryview(buffer)[start:start + fh.readinto(buffer[start:start + size])]
    if len(blob) < len(magic) + 16 + DIGEST_SIZE:
        raise ContractError(f"corrupt {what}: truncated")
    if blob[:len(magic)] != magic:
        raise ContractError(f"corrupt {what}: bad magic")
    body, digest = blob[:-DIGEST_SIZE], blob[-DIGEST_SIZE:]
    if hashlib.sha256(body).digest() != digest:
        raise ContractError(f"corrupt {what}: checksum mismatch")
    offset = len(magic)
    header_len = int.from_bytes(body[offset:offset + 8], "little")
    offset += 8
    try:
        header = json.loads(str(body[offset:offset + header_len], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        header = None
    if not isinstance(header, dict):
        raise ContractError(f"corrupt {what}: bad header")
    offset += header_len
    payload_len = int.from_bytes(body[offset:offset + 8], "little")
    offset += 8
    if offset + payload_len != len(body):
        raise ContractError(f"corrupt {what}: payload length mismatch")
    found = header.get("version")
    if type(found) is not int or found != version:
        raise ContractError(f"{what} version mismatch: {found}")
    names = sorted(("version", *fields))
    if sorted(header) != names:
        raise ContractError(f"corrupt {what}: header fields must be "
                            f"{', '.join(names[:-1])} and {names[-1]}")
    return header, body[offset:]
