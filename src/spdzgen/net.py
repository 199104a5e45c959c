"""In-process multi-party runtime.

Parties exchange byte payloads over pairwise FIFO channels.  A deterministic
scheduler (round-robin by default, seeded-random optional) decides which
channel delivers next, so a fixed seed replays the exact same transcript.
Each party draws randomness from its own generator derived from the master
seed, and every delivered message plus every local annotation lands in the
transcript, from which per-party views are sliced for privacy scans.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from dataclasses import dataclass

from .errors import NetworkError

@dataclass(frozen=True, order=True)
class PartyId:
    role: str
    index: int = 0

    def __post_init__(self):
        # identities key every share dict; a cached hash pays off
        object.__setattr__(self, "_hash", hash((self.role, self.index)))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return self.role if self.index == 0 else "%s_%d" % (self.role, self.index)


@dataclass(frozen=True)
class Message:
    src: PartyId
    dst: PartyId
    tag: str
    payload: bytes
    seq: int  # strictly increasing per (src, dst) channel


class Runtime:
    """Message bus, scheduler, per-party randomness, and transcript."""

    def __init__(self, parties, seed=0, scheduler="round-robin", record=True):
        parties = list(parties)
        if len(set(parties)) != len(parties):
            raise NetworkError("duplicate party identities")
        if not parties:
            raise NetworkError("empty party list")
        if scheduler not in ("round-robin", "random"):
            raise NetworkError("unknown scheduler policy %r" % scheduler)
        self.parties = tuple(sorted(parties))
        self.seed = seed
        self.scheduler = scheduler
        self.record = record
        self._channels: dict[tuple[PartyId, PartyId], deque] = {}
        self._ready: deque = deque()  # channels with pending messages
        self._seq: dict[tuple[PartyId, PartyId], int] = {}
        self._inbox: dict[PartyId, deque] = {pid: deque() for pid in self.parties}
        self._rngs: dict[PartyId, random.Random] = {}
        self._sched_rng = random.Random(self._derive_seed("scheduler"))
        self._transcript: list[tuple] = []
        self._id_counter = 0
        self.messages_sent = 0
        self.rounds = 0  # pump calls that delivered at least one message

    def _derive_seed(self, label: str) -> int:
        material = repr(self.seed).encode() + b"|" + label.encode()
        return int.from_bytes(hashlib.sha256(material).digest(), "big")

    def rng(self, pid: PartyId) -> random.Random:
        """Per-party generator, seeded from the master seed and the identity."""
        self._require_party(pid)
        if pid not in self._rngs:
            self._rngs[pid] = random.Random(self._derive_seed("party:%s" % pid))
        return self._rngs[pid]

    def fresh_id(self, prefix: str) -> str:
        self._id_counter += 1
        return "%s%06d" % (prefix, self._id_counter)

    def _require_party(self, pid):
        if pid not in self._inbox:
            raise NetworkError("unknown party %s" % (pid,))

    def send(self, src: PartyId, dst: PartyId, tag: str, payload: bytes) -> Message:
        self._require_party(src)
        self._require_party(dst)
        key = (src, dst)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        msg = Message(src, dst, tag, bytes(payload), seq)
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channels[key] = deque()
        if not channel:
            self._ready.append(key)
        channel.append(msg)
        self.messages_sent += 1
        return msg

    def _pick_channel(self):
        if not self._ready:
            return None
        if self.scheduler == "random":
            i = self._sched_rng.randrange(len(self._ready))
            key = self._ready[i]
            del self._ready[i]
            return key
        return self._ready.popleft()

    def deliver_next(self) -> Message | None:
        """Deliver one message per the scheduling policy; None when idle.

        Round-robin cycles fairly over the channels that currently hold
        pending messages: a channel rejoins the back of the queue after each
        delivery it survives.
        """
        key = self._pick_channel()
        if key is None:
            return None
        channel = self._channels[key]
        msg = channel.popleft()
        if channel:
            self._ready.append(key)
        self._inbox[msg.dst].append(msg)
        if self.record:
            self._transcript.append(("msg", msg.src, msg.dst, msg.tag, msg.payload, msg.seq))
        return msg

    def pump(self, max_steps: int = 10_000_000) -> int:
        """Deliver until all channels are empty; returns the delivery count.

        A call that delivers anything counts as one communication round.
        """
        steps = 0
        while steps < max_steps:
            if self.deliver_next() is None:
                if steps:
                    self.rounds += 1
                return steps
            steps += 1
        raise NetworkError("pump exceeded %d deliveries" % max_steps)

    def take(self, pid: PartyId, tag: str) -> Message:
        """Pop the first delivered message with this tag for pid."""
        self._require_party(pid)
        box = self._inbox[pid]
        for i, msg in enumerate(box):
            if msg.tag == tag:
                del box[i]
                return msg
        raise NetworkError("no pending %r message for %s" % (tag, pid))

    def take_all(self, pid: PartyId, tag: str) -> list[Message]:
        """Pop every delivered message with this tag for pid, in order."""
        self._require_party(pid)
        box = self._inbox[pid]
        out = [m for m in box if m.tag == tag]
        remaining = [m for m in box if m.tag != tag]
        box.clear()
        box.extend(remaining)
        return out

    def note(self, pid: PartyId, event: str):
        """Local-event annotation, visible only in pid's own view."""
        self._require_party(pid)
        if self.record:
            self._transcript.append(("note", pid, event))

    @property
    def transcript(self) -> list[tuple]:
        return list(self._transcript)

    def transcript_view(self, pid: PartyId) -> list[tuple]:
        """Messages sent or received by pid, plus pid's local annotations."""
        self._require_party(pid)
        view = []
        for rec in self._transcript:
            if rec[0] == "msg" and pid in (rec[1], rec[2]):
                view.append(rec)
            elif rec[0] == "note" and rec[1] == pid:
                view.append(rec)
        return view

    def transcript_bytes(self) -> bytes:
        """Canonical serialization, for byte-level replay comparison."""
        return b"".join(self._record_line(rec) for rec in self._transcript)

    def _record_line(self, rec) -> bytes:
        if rec[0] == "msg":
            doc = {"kind": "msg", "from": str(rec[1]), "to": str(rec[2]),
                   "tag": rec[3], "payload": rec[4].hex(), "seq": rec[5]}
        else:
            doc = {"kind": "note", "party": str(rec[1]), "event": rec[2]}
        return (json.dumps(doc, sort_keys=True) + "\n").encode()

    def export_transcript(self, path):
        with open(path, "wb") as fh:
            fh.write(self.transcript_bytes())

