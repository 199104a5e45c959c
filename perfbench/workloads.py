"""The three benchmark workloads.

Each workload makes its inputs from the workload seed, then runs the program
one unit at a time: `pipeline` one `spdzgen run` over a few controls,
`triples-two` one dispensed triple, `online` one screened control.  Only the
program's own calls sit inside `Phase.timed`; input generation, triple
dealing, repeated set-ups and every correctness check happen between timed
windows.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from spdzgen import cli, dispense, gwas, modmath
from spdzgen.dispense import BeaverTripleShares, split_additive
from spdzgen.errors import MpcError
from spdzgen.fixpt import FixedPointParams
from spdzgen.modmath import DEFAULT_GROUP_256
from spdzgen.spdz import TripleLedger
from tracer import RECONCILED

GROUP = DEFAULT_GROUP_256
SNPS = 50
RANK = 10
CASE_SAMPLES = 100
# Every control's plaintext residual must sit at least this far from tau^2,
# so a fixed-point rounding error cannot flip a decision (acceptance
# criterion 7 uses the same band).
GUARD_BAND = 0.02


class InputError(Exception):
    """A generated input breaks a precondition; inputs are never redrawn."""


class Phase:
    """Program time, item latencies and correctness checks of one measured phase."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.busy = 0.0
        self.items = 0
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.units = []          # traced counts of each unit of work
        self.program_delta = {}  # program counters, summed over timed windows

    @contextmanager
    def timed(self):
        """Time the enclosed program calls; the tracer records only in here."""
        tracer = self.tracer
        if tracer is not None:
            before = self.workload.program_counters()
            tracer.active = True
        t0 = perf_counter()
        try:
            yield
        finally:
            self.busy += perf_counter() - t0
            if tracer is not None:
                tracer.active = False
                after = self.workload.program_counters()
                for key, value in after.items():
                    self.program_delta[key] = self.program_delta.get(key, 0) + value - before[key]

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def measure(wl, seconds: float, min_units: int = 0, tracer=None, between_units=None) -> Phase:
    """Run whole units until `seconds` of program time and `min_units` units.

    `between_units(phase)` runs after every unit, outside the timed windows.
    A traced phase also checks its counts (see `check_counts`).
    """
    phase = Phase(wl, tracer)
    try:
        while (phase.busy < seconds or len(phase.units) < min_units) and not phase.failed:
            before = tracer.counts() if tracer else None
            wl.step(phase)
            if tracer:
                after = tracer.counts()
                phase.units.append({k: after[k] - before[k] for k in after})
            if between_units:
                between_units(phase)
        if not phase.failed:
            wl.finish(phase)
    except (MpcError, InputError) as exc:
        phase.check(False, "%s: %s" % (type(exc).__name__, exc))
    if tracer:
        check_counts(phase, tracer)
    return phase


def check_counts(phase: Phase, tracer):
    """Every unit repeats the same counts, and the tracer's counts equal the
    program's own counters over the same timed windows."""
    units = phase.units
    phase.check(all(u == units[0] for u in units),
                "counts differ between units: %s" % units[:2])
    for key, name in RECONCILED.items():
        if key in phase.program_delta:
            phase.check(tracer.calls[name] == phase.program_delta[key],
                        "%s: traced %d != program %d"
                        % (name, tracer.calls[name], phase.program_delta[key]))


def _span_rows(rng: random.Random):
    """RANK genotype rows whose orthonormalised span has full rank."""
    while True:
        rows = [tuple(rng.randrange(3) for _ in range(SNPS)) for _ in range(RANK)]
        basis = gwas.orthonormal_columns(rows)
        if basis.rank == RANK:
            return rows, basis


class _Controls:
    """Endless control stream: even indices in the basis span, odd ones random.

    In-span controls are accepted and random ones rejected, so both decisions
    occur in every run.  A control that falls inside the tau^2 guard band
    raises InputError instead of being redrawn.
    """

    def __init__(self, rng, span_rows, basis, config):
        self.rng = rng
        self.span_rows = span_rows
        self.basis = basis
        self.tau_sq = float(config.tau) ** 2
        self.index = 0

    def next(self) -> gwas.ControlRecord:
        i = self.index
        self.index += 1
        if i % 2 == 0:
            row = self.rng.choice(self.span_rows)
        else:
            row = tuple(self.rng.randrange(3) for _ in range(SNPS))
        ctrl = gwas.ControlRecord.from_genotype_row("c%07d" % i, row)
        res = gwas.plain_residual_norm_sq(self.basis, ctrl.vector)
        if abs(res - self.tau_sq) <= GUARD_BAND:
            raise InputError("control %d has residual^2 %.6f within %.2f of tau^2 %.2f"
                             % (i, res, GUARD_BAND, self.tau_sq))
        return ctrl


class Pipeline:
    """`spdzgen run` in-process through `spdzgen.cli.main`, CONTROLS per call.

    256-bit default group, single blinding, 3 parties, one segment, no
    transcript.  Each call is checked against `--plaintext-oracle` on the
    same files.  An item is one control; its latency is the time from the
    previous decision (or the start of the call) to its own decision.
    """

    CONTROLS = 3
    unit_items = CONTROLS

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.totals = {"messages": 0, "minted": 0, "spent": 0}
        self._live = []  # contexts built by the current call

    def setup(self):
        rng = random.Random("pipeline:%d" % self.seed)
        span_rows, basis = _span_rows(rng)
        case = gwas.synth_genotypes(CASE_SAMPLES, SNPS, 0.5, seed="case:%d" % self.seed)
        self.case_csv = self.workdir / "case.csv"
        self.basis_csv = self.workdir / "basis.csv"
        self.ctrl_csv = self.workdir / "controls.csv"
        case.to_csv(self.case_csv)
        basis.to_csv(self.basis_csv)
        config = gwas.PipelineConfig(fp=FixedPointParams(p=GROUP.p))
        # the guard band is checked on the basis exactly as the CLI reads it
        self.controls = _Controls(rng, span_rows, gwas.CaseBasis.from_csv(self.basis_csv), config)

    def program_counters(self) -> dict:
        counters = dict(self.totals, modexp=modmath.modexp_count())
        for ctx in self._live:
            counters["messages"] += ctx.runtime.messages_sent
            counters["minted"] += ctx.dispenser.count
            counters["spent"] += len(ctx.ledger)
        return counters

    def _run_cli(self, out: Path, *extra) -> int:
        return cli.main(["run", "--case", str(self.case_csv), "--basis", str(self.basis_csv),
                         "--controls", str(self.ctrl_csv), "--out", str(out),
                         "--seed", str(self.seed), *extra])

    def step(self, phase: Phase):
        batch = [self.controls.next() for _ in range(self.CONTROLS)]
        gwas.GenotypeMatrix(entries=tuple(tuple(int(v) for v in c.vector) for c in batch)) \
            .to_csv(self.ctrl_csv)
        secure_out = self.workdir / "report.json"
        oracle_out = self.workdir / "oracle.json"

        stamps = []
        accept_bit, build_parties = gwas.secure_accept_bit, gwas.build_parties

        def stamped_accept_bit(*args, **kwargs):
            decision = accept_bit(*args, **kwargs)
            stamps.append(perf_counter())
            return decision

        def capturing_build_parties(*args, **kwargs):
            ctx = build_parties(*args, **kwargs)
            self._live.append(ctx)
            return ctx

        gwas.secure_accept_bit, gwas.build_parties = stamped_accept_bit, capturing_build_parties
        try:
            with phase.timed():
                t0 = perf_counter()
                code = self._run_cli(secure_out)
        finally:
            gwas.secure_accept_bit, gwas.build_parties = accept_bit, build_parties
        self.totals = {k: v for k, v in self.program_counters().items() if k != "modexp"}
        self._live.clear()

        if not phase.check(code == 0, "spdzgen run exited with %d" % code):
            return
        marks = [t0] + stamps
        phase.latencies.extend(b - a for a, b in zip(marks, marks[1:]))
        phase.items += len(stamps)
        if self._run_cli(oracle_out, "--plaintext-oracle") != 0:
            raise InputError("plaintext oracle rejected the generated inputs")
        secure, oracle = _read_json(secure_out), _read_json(oracle_out)
        for i in range(len(batch)):
            cid = "ctrl_%03d" % i
            phase.check((cid in secure["accepted"]) == (cid in oracle["accepted"]),
                        "decision for %s differs from the oracle" % cid)
        phase.check(secure["lambda"] == oracle["lambda"],
                    "lambda %s differs from the oracle %s" % (secure["lambda"], oracle["lambda"]))

    def finish(self, phase: Phase):
        pass


class TriplesTwo:
    """`TripleDispenser` in two-randomness mode; an item is one triple."""

    unit_items = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self):
        self.ctx = gwas.build_parties(GROUP, seed="triples-two:%d" % self.seed, blinding="two")

    def program_counters(self) -> dict:
        return {"modexp": modmath.modexp_count(),
                "messages": self.ctx.runtime.messages_sent,
                "minted": self.ctx.dispenser.count,
                "spent": len(self.ctx.ledger)}

    def step(self, phase: Phase):
        dispenser = self.ctx.dispenser
        with phase.timed():
            t0 = perf_counter()
            triple = dispenser.next_triple()
            phase.latencies.append(perf_counter() - t0)
        phase.items += 1
        p = GROUP.p
        a, b, c = (dispense.reconstruct(list(shares.values()), p)
                   for shares in (triple.a_shares, triple.b_shares, triple.c_shares))
        phase.check(c == a * b % p, "triple %s: c != a*b mod p" % triple.triple_id)

    def finish(self, phase: Phase):
        pass


class Dealer:
    """Valid Beaver triples in the group field, made ahead of their use.

    Stands in for the offline phase so the online workload measures share
    arithmetic alone.  Triple ids never repeat within one dealer.
    """

    CHUNK = 12_000

    def __init__(self, parties, rng: random.Random):
        self.parties = tuple(parties)
        self.rng = rng
        self.made = 0
        self.count = 0  # triples handed out
        self.pool = []

    def deal(self, n: int):
        p, m, rng, parties = GROUP.p, len(self.parties), self.rng, self.parties
        fresh = []
        for _ in range(n):
            a, b = rng.randrange(1, p), rng.randrange(1, p)
            self.made += 1
            fresh.append(BeaverTripleShares(
                triple_id="d%08d" % self.made, parties=parties,
                a_shares=dict(zip(parties, split_additive(a, m, p, rng))),
                b_shares=dict(zip(parties, split_additive(b, m, p, rng))),
                c_shares=dict(zip(parties, split_additive(a * b % p, m, p, rng)))))
        fresh.reverse()
        self.pool = fresh + self.pool

    def next_triple(self) -> BeaverTripleShares:
        self.count += 1
        return self.pool.pop()


class Online:
    """The screening phase alone, on dealt triples; an item is one control.

    The basis columns are shared once in set-up.  Per control: share_vector,
    residual_norm_sq and secure_accept_bit; one secure_inflation_factor call
    over the accepted controls closes the run.
    """

    unit_items = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self):
        rng = random.Random("online:%d" % self.seed)
        span_rows, self.basis = _span_rows(rng)
        self.case_counts = gwas.synth_genotypes(
            CASE_SAMPLES, SNPS, 0.5, seed="case:%d" % self.seed).counts()
        self.config = gwas.PipelineConfig(fp=FixedPointParams(p=GROUP.p))
        self.controls = _Controls(rng, span_rows, self.basis, self.config)
        self.ctx = ctx = gwas.build_parties(GROUP, seed="online:%d" % self.seed)
        self.cols = [gwas.share_vector(ctx.runtime, ctx.o_case, self.basis.column(j),
                                       ctx.mpc_pids, self.config.fp)
                     for j in range(self.basis.rank)]
        self.dealer = Dealer(ctx.mpc_pids, random.Random("dealer:%d" % self.seed))
        self.dealer.deal(Dealer.CHUNK)
        self.ledger = TripleLedger()
        self.spent_before = 0  # spends recorded in retired ledgers
        self.per_control = 0
        self.secure_totals = [0, 0, 0]
        self.oracle_totals = [0, 0, 0]

    def program_counters(self) -> dict:
        return {"modexp": modmath.modexp_count(),
                "messages": self.ctx.runtime.messages_sent,
                "dealt": self.dealer.count,
                "spent": self.spent_before + len(self.ledger)}

    def _ensure_triples(self):
        # refill with room for two controls, sized by what the last one used
        if len(self.dealer.pool) < 2 * max(self.per_control, SNPS * (RANK + 2)):
            self.dealer.deal(Dealer.CHUNK)
            self.spent_before += len(self.ledger)
            self.ledger = TripleLedger()

    def step(self, phase: Phase):
        ctx, fp = self.ctx, self.config.fp
        ctrl = self.controls.next()
        self._ensure_triples()
        used = self.dealer.count
        with phase.timed():
            t0 = perf_counter()
            z = gwas.share_vector(ctx.runtime, ctx.o_ctrl, ctrl.vector, ctx.mpc_pids, fp)
            res = gwas.residual_norm_sq(ctx.runtime, self.cols, z, fp, self.dealer,
                                        self.ledger, ctx.roles)
            accepted = gwas.secure_accept_bit(ctx.runtime, res, self.config, ctx.roles)
            phase.latencies.append(perf_counter() - t0)
        phase.items += 1
        self.per_control = self.dealer.count - used
        oracle = gwas.plain_filter_controls(self.basis, self.case_counts, [ctrl], self.config)
        expected = oracle["accepted"] == [ctrl.control_id]
        phase.check(accepted == expected,
                    "decision for %s differs from the oracle" % ctrl.control_id)
        for totals, ok in ((self.secure_totals, accepted), (self.oracle_totals, expected)):
            if ok:
                for i in range(3):
                    totals[i] += ctrl.counts[i]

    def finish(self, phase: Phase):
        ctx = self.ctx
        self._ensure_triples()
        with phase.timed():
            lam = gwas.secure_inflation_factor(
                ctx.runtime, GROUP, self.case_counts, tuple(self.secure_totals), ctx.mpc_pids,
                ctx.o_case, ctx.o_ctrl, ctx.leader, self.dealer, self.ledger, ctx.owner_keys)
        r, s = self.case_counts, self.oracle_totals
        want = gwas.inflation_factor_plain(gwas.ContingencyCounts(
            r0=r[0], r1=r[1], r2=r[2], s0=s[0], s1=s[1], s2=s[2]))
        phase.check(lam == want, "lambda %s differs from the oracle %s" % (lam, want))


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


WORKLOADS = {"pipeline": Pipeline, "triples-two": TriplesTwo, "online": Online}
