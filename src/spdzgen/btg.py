"""Three-party Beaver triple generation over layered ElGamal.

Roles A and B choose subgroup secrets a and b privately; C finishes holding
c = a*b mod p without either factor ever crossing the wire in the clear.
The message flow, per triple:

    A: u_A = g^{r_A},        v_A = a * h_AC^{r_A}          -> B
    B: u_B = u_A * g^{r_B},  v_B = v_A * b * h_AC^{r_B}    -> A
    A: strips its key layer, re-randomizes under h_C        -> C
    C: c = v_C / u_C^{x_C}

where h_AC = h_A * h_C.  The final division is assigned to C: only C holds
x_C, and c is C's output.

One session makes K triples at once: each hop is a single message
`session_id | step | K x (u | v)` carrying the K ciphertexts in triple order,
so a session is three messages in three rounds whatever K is, and nothing
is sent back once C holds its output; every ciphertext gets the same
exponentiations and checks as in a session of one.  The receiver of each
hop parses it and aborts on a foreign session id, a wrong step or the wrong
pair count.  A session is a protocol (`net.Runtime.run`), so it shares its
rounds with whatever runs beside it.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from . import modmath
from .errors import MessageSpaceError, ParameterError, ProtocolAbort
from .modmath import Ciphertext, GroupParams, KeyPair
from .net import Protocol, Runtime

SESSION_ID_BYTES = 16
BTG_TAG = "btg"


class BtgRole(enum.Enum):
    A = "A"
    B = "B"
    C = "C"


@dataclass(frozen=True)
class BtgMessage:
    session_id: bytes
    step: int  # 1, 2 or 3
    payloads: tuple  # one Ciphertext per triple of the session

    def serialize(self, params: GroupParams) -> bytes:
        """session_id (16) | step (1) | K x (u | v), fixed element width."""
        return (self.session_id + bytes([self.step])
                + modmath.encode_residues([x for ct in self.payloads for x in (ct.u, ct.v)],
                                          params.p))

    @classmethod
    def parse(cls, raw: bytes, params: GroupParams, count: int = 1) -> "BtgMessage":
        """Inverse of `serialize` for a session of `count` triples; a malformed
        payload raises ProtocolAbort."""
        expected = SESSION_ID_BYTES + 1 + 2 * count * params.element_size
        if len(raw) != expected:
            raise ProtocolAbort("BTG message of %d bytes, expected %d" % (len(raw), expected))
        sid = raw[:SESSION_ID_BYTES]
        step = raw[SESSION_ID_BYTES]
        if step not in (1, 2, 3):
            raise ProtocolAbort("BTG message for session %s has step %d" % (sid.hex(), step))
        values = modmath.decode_residues(raw[SESSION_ID_BYTES + 1:], 2 * count, params.p)
        if 0 in values:
            raise ProtocolAbort("BTG message for session %s carries a zero element" % sid.hex())
        return cls(sid, step, tuple(Ciphertext(values[i], values[i + 1])
                                    for i in range(0, 2 * count, 2)))


def keygen(params: GroupParams, rng: random.Random) -> KeyPair:
    """x uniform in [1, q); h = g^x."""
    x = rng.randrange(1, params.q)
    return KeyPair(x=x, h=modmath.modexp(params.g, x, params.p))


def _draw(params: GroupParams, rng: random.Random, pinned, k: int) -> int:
    """The k-th secret of a role: pinned, or a fresh subgroup element."""
    return modmath.random_subgroup_element(params, rng) if pinned is None else pinned[k]


def _hop(runtime: Runtime, params: GroupParams, session_id: bytes, step: int,
         src, dst, cts, count: int, tag: str) -> Protocol:
    """Send one hop of K ciphertexts; returns the K ciphertexts dst parses.

    A payload that does not parse, or one for another session or another
    step, raises ProtocolAbort.
    """
    runtime.send(src, dst, tag, BtgMessage(session_id, step, tuple(cts)).serialize(params))
    yield
    msg = BtgMessage.parse(runtime.take(dst, tag).payload, params, count)
    if msg.session_id != session_id:
        raise ProtocolAbort("message for session %s delivered to %s"
                            % (msg.session_id.hex(), session_id.hex()))
    if msg.step != step:
        raise ProtocolAbort("session %s expected a step-%d message, got step %d"
                            % (session_id.hex(), step, msg.step))
    return msg.payloads


def triple_session(runtime: Runtime, params: GroupParams, keys: dict, pids: dict,
                   forced: dict | None = None, count: int = 1,
                   tag: str = BTG_TAG) -> Protocol:
    """One session of `count` triples over the runtime's channels, as a
    protocol of three rounds.

    `keys` maps BtgRole -> KeyPair for roles A and C (role B never uses its
    key and may be absent); `pids` maps BtgRole -> PartyId.  `forced`
    optionally pins the K secrets of roles A and/or B, as lists in triple
    order; the count and every pinned secret's subgroup membership are
    checked at the first step, before anything is sent, and a non-member
    raises MessageSpaceError.  Drawn secrets are squares s^2 mod p, members by
    construction.  Every hop travels under `tag`: sessions that run side by
    side and deliver to one party pass distinct tags.  The protocol's result
    maps BtgRole -> the role's K secrets in triple order: a for A, b for B,
    c for C.
    """
    if count < 1:
        raise ParameterError("a session makes at least one triple, asked for %d" % count)
    forced = forced or {}
    for role, values in forced.items():
        if values is None:
            continue
        if len(values) != count:
            raise ParameterError("role %s pins %d secrets for a session of %d"
                                 % (role.value, len(values), count))
        if not all(modmath.is_subgroup_member(v, params) for v in values):
            raise MessageSpaceError("role %s pins a secret outside the subgroup" % role.value)

    pid_a, pid_b, pid_c = (pids[role] for role in BtgRole)
    rng_a, rng_b = runtime.rng(pid_a), runtime.rng(pid_b)
    h_c = keys[BtgRole.C].h
    h_ac = keys[BtgRole.A].h * h_c % params.p
    session_id = rng_a.getrandbits(8 * SESSION_ID_BYTES).to_bytes(SESSION_ID_BYTES, "big")

    # A samples each secret a and its first-layer randomness, encrypts under h_AC.
    a_vals, cts = [], []
    for k in range(count):
        a = _draw(params, rng_a, forced.get(BtgRole.A), k)
        cts.append(modmath.encrypt(params, h_ac, a, modmath.random_exponent(params, rng_a)))
        a_vals.append(a)
    received = yield from _hop(runtime, params, session_id, 1, pid_a, pid_b, cts, count, tag)

    # B multiplies each secret b into its layered ciphertext.
    b_vals, cts = [], []
    for k, ct in enumerate(received):
        b = _draw(params, rng_b, forced.get(BtgRole.B), k)
        cts.append(modmath.mult_layer(ct, b, h_ac, modmath.random_exponent(params, rng_b), params))
        b_vals.append(b)
    received = yield from _hop(runtime, params, session_id, 2, pid_b, pid_a, cts, count, tag)

    # A strips its own layer and re-randomizes each ciphertext under h_C alone.
    x_a = keys[BtgRole.A].x
    cts = [modmath.rerandomize(Ciphertext(ct.u, modmath.strip_layer(ct, x_a, params)), h_c,
                               modmath.random_exponent(params, rng_a), params)
           for ct in received]
    received = yield from _hop(runtime, params, session_id, 3, pid_a, pid_c, cts, count, tag)

    # C removes the last layer: c = a*b mod p.
    x_c = keys[BtgRole.C].x
    c_vals = [modmath.strip_layer(ct, x_c, params) for ct in received]
    return {BtgRole.A: a_vals, BtgRole.B: b_vals, BtgRole.C: c_vals}
