"""In-process multi-party runtime.

Parties exchange byte payloads through one queue that delivers in send order,
in synchronous rounds: each party sends, then every recipient reads what it
was sent.  A protocol is a generator that sends, yields to have its sends
delivered, and then takes.  `Runtime.run` is the one driver: it steps every
live protocol once per round and then pumps, so independent protocols run in
lockstep and share their rounds (`lockstep` nests the same inside a
protocol), and a synchronous call such as an opening is a run of one
protocol.  Every inbox is empty between runs.  A run that ends with a
message nobody took drops it and raises NetworkError, so a message delivered
twice is caught.  A run in which a step raises drops the round's sends and
notes and every untaken message, so a protocol checks its arguments at its
first step and a bad one leaves nothing behind; `messages_sent` and
`bytes_sent` count delivered messages.  Protocols that deliver to one party
in the same round use distinct tags.  Send order never reaches a result:
`take` matches on recipient and tag, and openings key contributions by
sender, so the order only shapes the transcript, which a fixed seed replays
byte for byte.  Each party draws randomness from its own generator derived
from the master seed, and every delivered message plus every local
annotation lands in the transcript, from which per-party views are sliced
for privacy scans.  A message is its endpoints, tag and payload only: the
transcript lists messages in send order, so each channel's order is read
off it.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Generator, NamedTuple

from .errors import NetworkError

# A protocol yields (nothing) where its sends must be delivered before it
# takes, and returns its result.
Protocol = Generator[None, None, object]


def lockstep(*protocols) -> Protocol:
    """One protocol that steps each of `protocols` in argument order and
    yields once per step, so a round delivers the sends of all of them; its
    result lists theirs in argument order.  An exception in any of them
    propagates."""
    results = [None] * len(protocols)
    live = dict(enumerate(protocols))
    while live:
        for i, protocol in list(live.items()):
            try:
                next(protocol)
            except StopIteration as stop:
                results[i] = stop.value
                del live[i]
        if live:
            yield
    return results


class PartyId(NamedTuple):
    """A party's role and index.  Identities key every share dict, so hashing
    and equality are the tuple's own, in C; ordering is by (role, index)."""

    role: str
    index: int = 0

    def __str__(self):
        return self.role if self.index == 0 else "%s_%d" % (self.role, self.index)


@dataclass(frozen=True)
class Message:
    src: PartyId
    dst: PartyId
    tag: str
    payload: bytes


class Runtime:
    """Message queue, per-party randomness, and transcript."""

    def __init__(self, parties, seed=0, record=True):
        parties = list(parties)
        if len(set(parties)) != len(parties):
            raise NetworkError("duplicate party identities")
        if not parties:
            raise NetworkError("empty party list")
        self.parties = tuple(sorted(parties))
        self.seed = seed
        self.record = record
        self._pending: deque = deque()  # sent, not yet delivered, in send order
        self._inbox: dict[PartyId, deque] = {pid: deque() for pid in self.parties}
        self._rngs: dict[PartyId, random.Random] = {}
        self._transcript: list[tuple] = []
        self._id_counter = 0
        self.messages_sent = 0  # messages delivered
        self.bytes_sent = 0  # payload bytes of every message delivered
        self.rounds = 0  # pump calls that delivered at least one message

    def _derive_seed(self, label: str) -> int:
        material = repr(self.seed).encode() + b"|" + label.encode()
        return int.from_bytes(hashlib.sha256(material).digest(), "big")

    def rng(self, pid: PartyId) -> random.Random:
        """Per-party generator, seeded from the master seed and the identity."""
        self._require_party(pid)
        if pid not in self._rngs:
            self._rngs[pid] = random.Random(self._derive_seed("party:%s" % (pid,)))
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
        msg = Message(src, dst, tag, bytes(payload))
        self._pending.append(msg)
        return msg

    def pump(self) -> int:
        """Deliver every pending message in send order; returns how many.

        A call that delivers anything counts as one communication round.
        Delivering sends nothing, so one pass empties the queue.  Only `run`
        calls it; it is public because the benchmark counts rounds here.
        """
        pending = self._pending
        delivered = len(pending)
        while pending:
            msg = pending.popleft()
            self._inbox[msg.dst].append(msg)
            self.bytes_sent += len(msg.payload)
            if self.record:
                self._transcript.append(("msg", msg.src, msg.dst, msg.tag, msg.payload))
        if delivered:
            self.messages_sent += delivered
            self.rounds += 1
        return delivered

    def run(self, *protocols) -> list:
        """Drive `protocols` in lockstep to their ends; returns their results
        in argument order.

        Each round steps every live protocol once and then pumps, so a run
        takes the rounds of its longest protocol, and a step that sends
        nothing costs none.  A run leaves every inbox empty: when a step
        raises, the round's sends and notes and every untaken message are
        dropped and the exception propagates, and a run that ends with an
        untaken message drops it and raises NetworkError.
        """
        driver = lockstep(*protocols)
        try:
            while True:
                recorded = len(self._transcript)  # the round's notes follow
                next(driver)
                self.pump()
        except StopIteration as stop:
            untaken = [msg for box in self._inbox.values() for msg in box]
            if not untaken:
                return stop.value
            failure = NetworkError("a run ended with %d untaken message(s), the first %r for %s"
                                   % (len(untaken), untaken[0].tag, untaken[0].dst))
        except BaseException as exc:
            failure = exc
        self._pending.clear()
        for box in self._inbox.values():
            box.clear()
        del self._transcript[recorded:]
        raise failure

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
                   "tag": rec[3], "payload": rec[4].hex()}
        else:
            doc = {"kind": "note", "party": str(rec[1]), "event": rec[2]}
        return (json.dumps(doc, sort_keys=True) + "\n").encode()

    def export_transcript(self, path):
        with open(path, "wb") as fh:
            fh.write(self.transcript_bytes())

