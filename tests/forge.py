"""Checkpoint forgery for tests: a test that edits a field on purpose re-seals
the file's CRC-32, so that loading reaches the check the test aims at rather
than stopping at the checksum."""

import struct
import zlib

from quantbench.checkpoint import FORMAT_VERSION, MAGIC

HEADER = len(MAGIC) + 4  # magic and version word, outside the checksum


def seal(raw: bytes) -> bytes:
    """The whole checkpoint ``raw`` with its trailing CRC-32 recomputed."""
    body = raw[HEADER:-4]
    return raw[:HEADER] + body + struct.pack("<I", zlib.crc32(body))


def sealed(spec: bytes, body: bytes = b"") -> bytes:
    """A sealed checkpoint holding the spec JSON ``spec``, then ``body``."""
    head = MAGIC + struct.pack("<II", FORMAT_VERSION, len(spec))
    return seal(head + spec + body + bytes(4))


def reseal_replace(path, old: bytes, new: bytes) -> None:
    """Replace the one occurrence of ``old`` in the file by ``new``; re-seal."""
    raw = path.read_bytes()
    assert raw.count(old) == 1
    path.write_bytes(seal(raw.replace(old, new)))
