"""Three-party Beaver triple generation over layered ElGamal.

Roles A and B choose subgroup secrets a and b privately; C finishes holding
c = a*b mod p without either factor ever crossing the wire in the clear.

One session makes K triples, cut into chunks of W = min(K, number of key
pairs per role) triples; the last chunk may be shorter.  Slot i of a chunk
has its own keys: h_A,i and h_C,i, with h_AC,i = h_A,i * h_C,i.  A chunk is
one multi-recipient ciphertext (`modmath.Ciphertext`): each hop draws one
randomness for it, so it computes one g^r and ships one u and W v's.  The
message flow, per chunk:

    A: u_A = g^{r_A},        v_A,i = a_i * h_AC,i^{r_A}            -> B
    B: u_B = u_A * g^{r_B},  v_B,i = v_A,i * b_i * h_AC,i^{r_B}    -> A
    A: strips each slot's layer u_B^{x_A,i}, and re-randomizes the
       chunk with one r' under the h_C,i                           -> C
    C: c_i = v_C,i / u_C^{x_C,i}

The final division is assigned to C: only C holds the x_C,i, and c is C's
output.  A triple costs 5 exponentiations (h^r for A's encryption, h^r for
B's layer, A's strip, h_C,i^r' for A's re-randomization, C's strip), and a
chunk 3 more (one g^r per hop).

Why each slot needs its own keys: one r for a chunk's slots is as secure as
fresh randomness per slot when their keys are distinct and independent
(Kurosawa, PKC 2002; Bellare, Boldyreva and Staddon, PKC 2003), and every
party's view is that setting.  B sees hop 1 under the distinct h_AC,i; A
reduces hop 2 to b_i under the distinct h_C,i; an eavesdropping C strips its
own layers off hops 1 and 2 and is left with a_i and a_i*b_i under the
distinct h_A,i.  With one h_A for every slot, C would divide two slots of
hop 1 and read a_i/a_j.  With one key pair per role, W is 1 and every triple
has its own u: the protocol of one triple at a time, byte for byte.

Each hop is a single message `session_id | step | per chunk: u, then its
v's` (`BtgMessage`), carrying the chunks' ciphertexts in triple order, so a
session is three messages in three rounds whatever K is, and nothing is
sent back once C holds its output.  The receiver of each hop parses it and
aborts on a foreign session id, a wrong step, a wrong length or a zero
element.  A session is a protocol (`net.Runtime.run`), so it shares its
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
# The most key pairs per role a dispenser holds (`dispense.TripleDispenser`),
# and so the widest chunk of triples that share one randomness per hop.
CHUNK = 64


class BtgRole(enum.Enum):
    A = "A"
    B = "B"
    C = "C"


@dataclass(frozen=True)
class BtgMessage:
    session_id: bytes
    step: int  # 1, 2 or 3
    chunks: tuple  # one Ciphertext per chunk of triples, in triple order

    def serialize(self, params: GroupParams) -> bytes:
        """session_id (16) | step (1) | per chunk: u | its v's, fixed element
        width."""
        values = [x for ct in self.chunks for x in (ct.u, *ct.vs)]
        return self.session_id + bytes([self.step]) + modmath.encode_residues(values, params.p)

    @classmethod
    def parse(cls, raw: bytes, params: GroupParams, count: int = 1,
              width: int = 1) -> "BtgMessage":
        """Inverse of `serialize` for a session of `count` triples in chunks of
        `width`; a malformed payload raises ProtocolAbort."""
        elements = count + -(-count // width)  # one v per triple, one u per chunk
        expected = SESSION_ID_BYTES + 1 + elements * params.element_size
        if len(raw) != expected:
            raise ProtocolAbort("BTG message of %d bytes, expected %d" % (len(raw), expected))
        sid = raw[:SESSION_ID_BYTES]
        step = raw[SESSION_ID_BYTES]
        if step not in (1, 2, 3):
            raise ProtocolAbort("BTG message for session %s has step %d" % (sid.hex(), step))
        values = modmath.decode_residues(raw[SESSION_ID_BYTES + 1:], elements, params.p)
        if 0 in values:
            raise ProtocolAbort("BTG message for session %s carries a zero element" % sid.hex())
        # each chunk is its u and then up to `width` v's
        return cls(sid, step, tuple(Ciphertext(values[i], tuple(values[i + 1:i + 1 + width]))
                                    for i in range(0, elements, width + 1)))


def keygen(params: GroupParams, rng: random.Random) -> KeyPair:
    """x uniform in [1, q); h = g^x."""
    x = rng.randrange(1, params.q)
    return KeyPair(x=x, h=modmath.modexp(params.g, x, params.p))


def _draw(params: GroupParams, rng: random.Random, pinned, k: int) -> int:
    """The k-th secret of a role: pinned, or a fresh subgroup element."""
    return modmath.random_subgroup_element(params, rng) if pinned is None else pinned[k]


def _hop(runtime: Runtime, params: GroupParams, session_id: bytes, step: int,
         src, dst, cts, count: int, width: int, tag: str) -> Protocol:
    """Send one hop of K triples' ciphertexts, one per chunk of `width`;
    returns the ciphertexts dst parses.

    A payload that does not parse, or one for another session or another
    step, raises ProtocolAbort.
    """
    runtime.send(src, dst, tag, BtgMessage(session_id, step, tuple(cts)).serialize(params))
    yield
    msg = BtgMessage.parse(runtime.take(dst, tag).payload, params, count, width)
    if msg.session_id != session_id:
        raise ProtocolAbort("message for session %s delivered to %s"
                            % (msg.session_id.hex(), session_id.hex()))
    if msg.step != step:
        raise ProtocolAbort("session %s expected a step-%d message, got step %d"
                            % (session_id.hex(), step, msg.step))
    return msg.chunks


def triple_session(runtime: Runtime, params: GroupParams, keys: dict, pids: dict,
                   forced: dict | None = None, count: int = 1,
                   tag: str = BTG_TAG, drawn: dict | None = None,
                   squares: bool = False) -> Protocol:
    """One session of `count` triples over the runtime's channels, as a
    protocol of three rounds.

    `keys` maps BtgRole -> a list of KeyPairs for roles A and C, one per slot
    of a chunk, and the two lists are as long; the chunk width is the lists'
    length, up to `count` (role B never uses a key and may be absent).
    `pids` maps BtgRole -> PartyId.  `forced` optionally pins the K secrets
    of roles A and/or B, as lists in triple order; the key lists, the count
    and every pinned secret's subgroup membership are checked at the first
    step, before anything is sent, and a non-member raises MessageSpaceError.
    `squares` skips that test for a caller that built its pins as squares
    and so has decided their membership itself: the dispenser's
    single-mode a and b, one Legendre symbol each (`dispense`).  The pins
    of `mhkm.key_product` are tested here.  Drawn secrets are squares s^2
    mod p, members by construction.  Every hop
    travels under `tag`: sessions that run side by side and deliver to one
    party pass distinct tags.  The protocol's result maps BtgRole -> the
    role's K secrets in triple order: a for A, b for B, c for C.  It is built
    in `drawn` when that is given: A's secrets land there at the first step
    and B's at the second, so a protocol stepped after the session in
    lockstep can use them before hop 3 is delivered.
    """
    if count < 1:
        raise ParameterError("a session makes at least one triple, asked for %d" % count)
    keys_a, keys_c = keys[BtgRole.A], keys[BtgRole.C]
    if not keys_a or len(keys_a) != len(keys_c):
        raise ParameterError("roles A and C hold %d and %d key pairs; a session needs "
                             "one each per slot" % (len(keys_a), len(keys_c)))
    width = min(count, len(keys_a))
    forced = forced or {}
    for role, values in forced.items():
        if values is None:
            continue
        if len(values) != count:
            raise ParameterError("role %s pins %d secrets for a session of %d"
                                 % (role.value, len(values), count))
        if not squares and not all(modmath.is_subgroup_member(v, params) for v in values):
            raise MessageSpaceError("role %s pins a secret outside the subgroup" % role.value)

    pid_a, pid_b, pid_c = (pids[role] for role in BtgRole)
    rng_a, rng_b = runtime.rng(pid_a), runtime.rng(pid_b)
    x_a, x_c = ([key.x for key in pairs[:width]] for pairs in (keys_a, keys_c))
    h_c = [key.h for key in keys_c[:width]]
    h_ac = [key.h * h % params.p for key, h in zip(keys_a, h_c)]
    session_id = rng_a.getrandbits(8 * SESSION_ID_BYTES).to_bytes(SESSION_ID_BYTES, "big")

    def hop(step, src, dst, cts):
        return _hop(runtime, params, session_id, step, src, dst, cts, count, width, tag)

    spans = [range(start, min(start + width, count)) for start in range(0, count, width)]

    out = {} if drawn is None else drawn
    # A samples a chunk's secrets, then one first-layer randomness for the
    # chunk, and encrypts slot i under h_AC,i.
    a_vals = out[BtgRole.A] = []
    cts = []
    for span in spans:
        secrets = [_draw(params, rng_a, forced.get(BtgRole.A), k) for k in span]
        cts.append(modmath.encrypt(params, h_ac, secrets, modmath.random_exponent(params, rng_a)))
        a_vals += secrets
    received = yield from hop(1, pid_a, pid_b, cts)

    # B multiplies each secret b into its slot, with one randomness per chunk.
    b_vals = out[BtgRole.B] = []
    cts = []
    for ct, span in zip(received, spans):
        secrets = [_draw(params, rng_b, forced.get(BtgRole.B), k) for k in span]
        cts.append(modmath.mult_layer(ct, secrets, h_ac,
                                      modmath.random_exponent(params, rng_b), params))
        b_vals += secrets
    received = yield from hop(2, pid_b, pid_a, cts)

    # A strips each slot's layer and re-randomizes each chunk under the h_C,i alone.
    cts = [modmath.rerandomize(Ciphertext(ct.u, modmath.strip_layer(ct, x_a, params)), h_c,
                               modmath.random_exponent(params, rng_a), params)
           for ct in received]
    received = yield from hop(3, pid_a, pid_c, cts)

    # C removes the last layer: c = a*b mod p.
    out[BtgRole.C] = [c for ct in received for c in modmath.strip_layer(ct, x_c, params)]
    return out
