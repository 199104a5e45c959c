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
so a session costs three protocol messages and one done ack whatever K is,
while every ciphertext gets the same exponentiations and checks as in a
session of one.  Each session is a single-shot monotone state machine;
messages must arrive in step order and carry exactly the session's K pairs.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from . import modmath
from .errors import ParameterError, ProtocolAbort, ProtocolStateError
from .modmath import Ciphertext, GroupParams, KeyPair
from .net import Runtime

SESSION_ID_BYTES = 16
BTG_TAG = "btg"
BTG_DONE_TAG = "btg-done"


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
                + b"".join(params.encode_element(ct.u) + params.encode_element(ct.v)
                           for ct in self.payloads))

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


@dataclass
class BtgSession:
    """One role's view of a session making `count` triples.

    `outputs` holds the role's K secrets in triple order once its last step
    has run: a for A, b for B, c for C.
    """

    session_id: bytes
    params: GroupParams
    my_role: BtgRole
    my_keypair: KeyPair | None
    peer_public_keys: dict
    rng: random.Random
    count: int = 1
    state: str = "initial"
    outputs: list = field(default_factory=list)

    def _expect(self, role: BtgRole, state: str):
        if self.my_role is not role:
            raise ProtocolStateError(
                "step belongs to role %s, session holds role %s" % (role.value, self.my_role.value))
        if self.state != state:
            raise ProtocolStateError(
                "session %s in state %r, expected %r" % (self.session_id.hex(), self.state, state))

    def _check_msg(self, msg: BtgMessage, step: int):
        if msg.session_id != self.session_id:
            raise ProtocolStateError("message for session %s delivered to %s"
                                     % (msg.session_id.hex(), self.session_id.hex()))
        if msg.step != step:
            raise ProtocolStateError("expected step-%d message, got step %d" % (step, msg.step))
        if len(msg.payloads) != self.count:
            raise ProtocolAbort("session %s of %d triples got %d ciphertexts"
                                % (self.session_id.hex(), self.count, len(msg.payloads)))

    def _h_ac(self) -> int:
        return self.peer_public_keys[BtgRole.A] * self.peer_public_keys[BtgRole.C] % self.params.p

    def step_a1(self, *, secrets=None, nonces=None) -> BtgMessage:
        """A samples each secret a and its first-layer randomness, encrypts under h_AC."""
        self._expect(BtgRole.A, "initial")
        params, rng, h_ac = self.params, self.rng, self._h_ac()
        cts = []
        for k in range(self.count):
            a = modmath.random_subgroup_element(params, rng) if secrets is None else secrets[k]
            r_a = modmath.random_exponent(params, rng) if nonces is None else nonces[k]
            cts.append(modmath.encrypt(params, h_ac, a, r_a))
            self.outputs.append(a % params.p)
        self.state = "awaiting-step2"
        return BtgMessage(self.session_id, 1, tuple(cts))

    def step_b(self, msg: BtgMessage, *, secrets=None, nonces=None) -> BtgMessage:
        """B multiplies each secret b into its layered ciphertext."""
        self._expect(BtgRole.B, "initial")
        self._check_msg(msg, 1)
        params, rng, h_ac = self.params, self.rng, self._h_ac()
        cts = []
        for k, ct in enumerate(msg.payloads):
            b = modmath.random_subgroup_element(params, rng) if secrets is None else secrets[k]
            r_b = modmath.random_exponent(params, rng) if nonces is None else nonces[k]
            cts.append(modmath.mult_layer(ct, b, h_ac, r_b, params))
            self.outputs.append(b % params.p)
        self.state = "done"
        return BtgMessage(self.session_id, 2, tuple(cts))

    def step_a2(self, msg: BtgMessage, *, nonces=None) -> BtgMessage:
        """A strips its own layer and re-randomizes each ciphertext under h_C alone."""
        self._expect(BtgRole.A, "awaiting-step2")
        self._check_msg(msg, 2)
        params, x, h_c = self.params, self.my_keypair.x, self.peer_public_keys[BtgRole.C]
        cts = []
        for k, ct in enumerate(msg.payloads):
            v = modmath.strip_layer(ct, x, params)
            r = modmath.random_exponent(params, self.rng) if nonces is None else nonces[k]
            cts.append(modmath.rerandomize(Ciphertext(ct.u, v), h_c, r, params))
        self.state = "done"
        return BtgMessage(self.session_id, 3, tuple(cts))

    def finish_c(self, msg: BtgMessage) -> list:
        """C removes the last layer; its outputs are the products c = a*b mod p."""
        self._expect(BtgRole.C, "initial")
        self._check_msg(msg, 3)
        self.outputs = [modmath.strip_layer(ct, self.my_keypair.x, self.params)
                        for ct in msg.payloads]
        self.state = "done"
        return self.outputs


def new_session_trio(params: GroupParams, keys: dict, rngs: dict,
                     session_id: bytes, count: int = 1) -> dict:
    """Build the three per-role session objects sharing one session id.

    `keys` maps BtgRole -> KeyPair for roles A and C (role B never uses its
    key in the protocol and may be absent).  `rngs` maps BtgRole -> Random.
    """
    pub = {BtgRole.A: keys[BtgRole.A].h, BtgRole.C: keys[BtgRole.C].h}
    return {
        role: BtgSession(
            session_id=session_id,
            params=params,
            my_role=role,
            my_keypair=keys.get(role),
            peer_public_keys=pub,
            rng=rngs[role],
            count=count,
        )
        for role in BtgRole
    }


@dataclass(frozen=True)
class TripleOutcome:
    session_id: bytes
    sessions: dict  # BtgRole -> BtgSession, each holding its outputs

    def secrets(self, role: BtgRole) -> list:
        """The role's K secrets, in triple order."""
        return self.sessions[role].outputs


def run_triple_session(runtime: Runtime, params: GroupParams, keys: dict,
                       pids: dict, forced: dict | None = None,
                       count: int = 1) -> TripleOutcome:
    """Drive one full session of `count` triples over the runtime's channels.

    `pids` maps BtgRole -> PartyId.  `forced` optionally pins the K secrets
    of roles A and/or B, as lists in triple order.  A short extra-protocol
    "done" ack from C back to A closes the session for the simulator's
    bookkeeping.
    """
    if count < 1:
        raise ParameterError("a session makes at least one triple, asked for %d" % count)
    forced = forced or {}
    for role, values in forced.items():
        if values is not None and len(values) != count:
            raise ParameterError("role %s pins %d secrets for a session of %d"
                                 % (role.value, len(values), count))
    session_id = runtime.rng(pids[BtgRole.A]).getrandbits(8 * SESSION_ID_BYTES) \
        .to_bytes(SESSION_ID_BYTES, "big")
    rngs = {role: runtime.rng(pids[role]) for role in BtgRole}
    sessions = new_session_trio(params, keys, rngs, session_id, count)

    m1 = sessions[BtgRole.A].step_a1(secrets=forced.get(BtgRole.A))
    runtime.send(pids[BtgRole.A], pids[BtgRole.B], BTG_TAG, m1.serialize(params))
    runtime.pump()

    raw = runtime.take(pids[BtgRole.B], BTG_TAG)
    m2 = sessions[BtgRole.B].step_b(BtgMessage.parse(raw.payload, params, count),
                                    secrets=forced.get(BtgRole.B))
    runtime.send(pids[BtgRole.B], pids[BtgRole.A], BTG_TAG, m2.serialize(params))
    runtime.pump()

    raw = runtime.take(pids[BtgRole.A], BTG_TAG)
    m3 = sessions[BtgRole.A].step_a2(BtgMessage.parse(raw.payload, params, count))
    runtime.send(pids[BtgRole.A], pids[BtgRole.C], BTG_TAG, m3.serialize(params))
    runtime.pump()

    raw = runtime.take(pids[BtgRole.C], BTG_TAG)
    sessions[BtgRole.C].finish_c(BtgMessage.parse(raw.payload, params, count))
    runtime.send(pids[BtgRole.C], pids[BtgRole.A], BTG_DONE_TAG, session_id)
    runtime.pump()
    runtime.take(pids[BtgRole.A], BTG_DONE_TAG)

    return TripleOutcome(session_id=session_id, sessions=sessions)
