"""The coordinator↔worker wire format: length-prefixed JSON frames.

Everything on the wire is a *frame*: a 4-byte big-endian length followed by
that many bytes of UTF-8 JSON encoding one message object.  JSON keeps the
protocol inspectable (``nc`` + a hex dump is a debugger) and stdlib-only;
the length prefix makes message boundaries explicit so a reader never has
to guess where one JSON document ends and the next begins.

Trial specs are the one payload JSON cannot carry: they contain workload /
scheme / adversary-factory objects.  Those cross the wire pickled and
base64-wrapped inside a JSON field (:func:`encode_specs` /
:func:`decode_specs`) — the exact same pickling contract
:class:`~repro.runtime.backends.ProcessPoolBackend` already imposes
(module-level importables and dataclasses, never lambdas), extended across
hosts.  Both ends must therefore run the same ``repro`` version; the hello
handshake enforces that, which is also what makes remote execution
bit-identical to local execution.

Message vocabulary (``type`` field) — a worker answers exactly three
requests, and anything else with an ``error`` frame:

==============  =======================  =====================================
request         response                 meaning
==============  =======================  =====================================
``hello``       ``hello``                handshake: ids + version check
``ping``        ``pong``                 liveness check
``execute``     ``heartbeat``* then      run this chunk of pickled specs
                ``result`` / ``error``   (heartbeats interleave while running)
==============  =======================  =====================================

Workers cache nothing: the coordinator's result cache
(:mod:`repro.runtime.cache`) decides which trials to send.

Observability rides the existing vocabulary in one field each way.  An
``execute`` request carries ``obs``, the
:func:`~repro.runtime.backends.chunk_request` naming the instruments the
coordinator has on — ``counters``, a ``trace`` (``{"trace_id", "parent",
"sample_every"}``) and a ``forensics`` ring capacity — and the matching
``result`` carries ``obs`` back: the chunk's engine counters, the finished
span dicts recorded under the coordinator's trace id, and the trials'
flight-recorder dumps, each only when asked for.  The coordinator adopts
them exactly as the process pool adopts a chunk's, so one distributed sweep
yields one coherent cross-host trace and the same counters and dumps a
serial run records.
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import struct
from typing import Any, Dict, List, Sequence

#: Bump when the frame layout or message vocabulary changes incompatibly.
PROTOCOL_VERSION = 3

#: Upper bound on a single frame; anything larger is a protocol violation
#: (a length prefix of garbage bytes decodes to a huge number — better to
#: fail loudly than to allocate gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class WireError(RuntimeError):
    """A protocol violation: oversized frame, malformed JSON, bad handshake."""


def send_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Serialise ``message`` and write it as one length-prefixed frame."""
    data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit")
    sock.sendall(_LENGTH.pack(len(data)) + data)


def recv_frame(sock: socket.socket) -> Dict[str, Any]:
    """Read exactly one frame; raises ``ConnectionError`` on a closed peer."""
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if length > MAX_FRAME_BYTES:
        raise WireError(f"peer announced a {length}-byte frame (limit {MAX_FRAME_BYTES})")
    try:
        message = json.loads(_recv_exact(sock, length).decode("utf-8"))
    except ValueError as exc:
        raise WireError(f"malformed frame payload: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise WireError("frame payload is not a message object with a 'type' field")
    return message


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    buffer = bytearray()
    while len(buffer) < count:
        chunk = sock.recv(count - len(buffer))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        buffer.extend(chunk)
    return bytes(buffer)


def encode_specs(specs: Sequence[Any]) -> str:
    """Pickle a chunk of :class:`~repro.runtime.spec.TrialSpec` for transport.

    One pickle for the whole chunk, so specs that share a workload/scheme
    object (every sweep grid does) ship — and unpickle — that object once.
    """
    return base64.b64encode(pickle.dumps(list(specs))).decode("ascii")


def decode_specs(text: str) -> List[Any]:
    """Inverse of :func:`encode_specs`."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))
