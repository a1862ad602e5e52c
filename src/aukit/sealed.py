"""Sealed binary files: a JSON header and a payload under a SHA-256 trailer.

Layout: magic, header length, JSON header (sorted keys), payload length,
payload, then the SHA-256 of everything before it. Checkpoints and frame
stores share this framing; each keeps its own magic and header fields.
"""

import hashlib
import json

from .domain import ContractError

DIGEST_SIZE = 32


def write_sealed(path, magic, header, payload):
    """Write header (a JSON-able dict) and payload (bytes) as one sealed file."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = (
        magic
        + len(header_bytes).to_bytes(8, "little")
        + header_bytes
        + len(payload).to_bytes(8, "little")
        + payload
    )
    with open(path, "wb") as fh:
        fh.write(body + hashlib.sha256(body).digest())


def read_sealed(path, magic, what):
    """(header, payload) of a sealed file; ContractError names it as `what`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(magic) + 16 + DIGEST_SIZE:
        raise ContractError(f"corrupt {what}: truncated")
    if not blob.startswith(magic):
        raise ContractError(f"corrupt {what}: bad magic")
    body, digest = blob[:-DIGEST_SIZE], blob[-DIGEST_SIZE:]
    if hashlib.sha256(body).digest() != digest:
        raise ContractError(f"corrupt {what}: checksum mismatch")
    offset = len(magic)
    header_len = int.from_bytes(body[offset:offset + 8], "little")
    offset += 8
    try:
        header = json.loads(body[offset:offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        header = None
    if not isinstance(header, dict):
        raise ContractError(f"corrupt {what}: bad header")
    offset += header_len
    payload_len = int.from_bytes(body[offset:offset + 8], "little")
    offset += 8
    if offset + payload_len != len(body):
        raise ContractError(f"corrupt {what}: payload length mismatch")
    return header, body[offset:]
