import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spdzgen import btg, dispense, fixpt, gwas, modmath, net, spdz
from spdzgen.btg import BtgRole

from spdzgen.errors import (
    DegenerateTableError,
    ParameterError,
    ParseError,
    ProtocolAbort,
    ShapeError,
    ShareError,
    ValidationError,
)
from spdzgen.fixpt import FixedPointParams
from spdzgen.gwas import (
    CaseBasis,
    ContingencyCounts,
    ControlRecord,
    GenotypeMatrix,
    PipelineConfig,
    build_parties,
    counts_of,
    filter_controls,
    inflation_factor_plain,
    orthonormal_columns,
    plain_filter_controls,
    plain_residual_norm_sq,
    residual_norm_sq,
    screening_params,
    secure_accept_bit,
    secure_inflation_factor,
    share_vector,
    synth_genotypes,
)
from spdzgen.modmath import signed_decode

from helpers import (
    assert_only_received_by,
    fp_decode,
    open_value,
    record_truncations,
    transcript_view,
)


class TestGenotypeEncoding:
    def test_counts_of(self):
        assert counts_of([0, 1, 1, 2, 0, 0]) == (3, 2, 1)
        with pytest.raises(ParseError):
            counts_of([0, 3])


class TestGenotypeMatrix:
    def test_validation(self):
        with pytest.raises(ParseError):
            GenotypeMatrix(entries=((0, 5),))

    def test_csv_roundtrip(self, tmp_path):
        m = GenotypeMatrix(entries=((0, 1, 2), (2, 1, 0)))
        path = tmp_path / "g.csv"
        m.to_csv(path)
        back = GenotypeMatrix.from_csv(path)
        assert back == m
        assert back.samples == 2 and back.snps == 3
        assert back.counts() == (2, 2, 2)


class TestSynth:
    def test_reproducible(self):
        a = synth_genotypes(20, 10, 0.4, seed="s")
        b = synth_genotypes(20, 10, 0.4, seed="s")
        assert a == b

    def test_heterozygote_rate_near_hwe(self):
        m = synth_genotypes(2000, 5, 0.5, seed=1)
        c = m.counts()
        assert abs(c[1] / (2000 * 5) - 0.5) < 0.05

    def test_degenerate_frequency_all_zero(self):
        m = synth_genotypes(50, 20, 1e-9, seed=2)
        assert m.counts() == (1000, 0, 0)

    def test_invalid_frequency(self):
        with pytest.raises(ParameterError):
            synth_genotypes(5, 5, 0.0, seed=0)


class TestInflationFactor:
    def test_hardy_weinberg_zero(self):
        counts = ContingencyCounts(25, 50, 25, 0, 0, 0)
        assert inflation_factor_plain(counts) == 0

    def test_worked_table(self):
        counts = ContingencyCounts(30, 40, 30, 0, 0, 0)
        lam = inflation_factor_plain(counts)
        assert lam == Fraction(2000, 10000) == Fraction(1, 5)
        assert float(lam) == 0.2

    def test_split_across_owners(self):
        counts = ContingencyCounts(10, 20, 10, 15, 30, 15)
        assert inflation_factor_plain(counts) == 0  # still exact HWE proportions

    def test_degenerate(self):
        with pytest.raises(DegenerateTableError):
            inflation_factor_plain(ContingencyCounts(0, 0, 5, 0, 0, 0))


class TestBasis:
    def test_orthonormal_columns_from_vectors(self):
        basis = orthonormal_columns([(1, 0, 0, 1), (0, 2, 0, 0), (1, 0, 0, 1)])
        assert basis.rank == 2  # the duplicate vector is dropped
        basis.validate_orthonormal(FixedPointParams())

    def test_validation_rejects_skewed(self):
        bad = CaseBasis(rows=((Fraction(1), Fraction(1)),
                              (Fraction(0), Fraction(1))))
        with pytest.raises(ValidationError):
            bad.validate_orthonormal(FixedPointParams())

    @pytest.mark.parametrize("excess,ok", [(Fraction(0), True), (Fraction(1, 2 ** 60), False)])
    def test_validation_tolerance_edge(self, excess, ok):
        # columns (1, 0) and (t, 1): the off-diagonal dot is t, and the
        # diagonal 1 + t^2 stays well inside the tolerance 4/2^f
        params = FixedPointParams()
        t = Fraction(4, 2 ** params.f) + excess
        basis = CaseBasis(rows=((Fraction(1), t), (Fraction(0), Fraction(1))))
        if ok:
            basis.validate_orthonormal(params)
        else:
            with pytest.raises(ValidationError, match="columns 0,1"):
                basis.validate_orthonormal(params)

    def test_validation_mixed_denominators(self):
        # (1, 2, 2, 0)/3 and (6, -3, 0, 2)/7 are exactly orthonormal; the
        # entries are scaled by lcm(3, 7) = 21
        cols = ((Fraction(1, 3), Fraction(2, 3), Fraction(2, 3), Fraction(0)),
                (Fraction(6, 7), Fraction(-3, 7), Fraction(0), Fraction(2, 7)))
        CaseBasis(rows=tuple(zip(*cols))).validate_orthonormal(FixedPointParams())

    @pytest.mark.parametrize("nudge", [Fraction(-1, 3 * 2 ** 40), Fraction(0),
                                       Fraction(1, 3 * 2 ** 40)])
    def test_validation_edge_matches_fraction_definition(self, nudge):
        # u = (1, 2, 2, 0)/3 and w = (6, -3, 0, 2)/7 + t*u, with <u, w> = t
        # on either side of the tolerance 4/2^f; each column has its own
        # non-decimal denominators
        params = FixedPointParams()
        tol = Fraction(4, 2 ** params.f)
        u = [Fraction(n, 3) for n in (1, 2, 2, 0)]
        w = [Fraction(n, 7) + (tol + nudge) * ui for n, ui in zip((6, -3, 0, 2), u)]
        cols = (u, w)
        exact_ok = all(abs(sum(a * b for a, b in zip(cols[i], cols[j])) - (i == j)) <= tol
                       for i in range(2) for j in range(i, 2))
        assert exact_ok == (nudge <= 0)
        basis = CaseBasis(rows=tuple(zip(u, w)))
        if exact_ok:
            basis.validate_orthonormal(params)
        else:
            with pytest.raises(ValidationError, match="columns 0,1"):
                basis.validate_orthonormal(params)

    def test_csv_roundtrip(self, tmp_path):
        basis = orthonormal_columns([(1, 0, 1), (0, 1, 0)])
        path = tmp_path / "u.csv"
        basis.to_csv(path)
        back = CaseBasis.from_csv(path)
        assert back.dim == 3 and back.rank == 2
        back.validate_orthonormal(FixedPointParams())

    def test_residual_identity_oracle(self):
        # || (I - U U^T) z ||^2 == ||z||^2 - ||U^T z||^2 for orthonormal columns
        rng = np.random.default_rng(0)
        for _ in range(20):
            mat = rng.normal(size=(10, 3))
            u_mat, _ = np.linalg.qr(mat)
            z = rng.normal(size=10)
            direct = np.linalg.norm((np.eye(10) - u_mat @ u_mat.T) @ z) ** 2
            viaid = np.linalg.norm(z) ** 2 - np.linalg.norm(u_mat.T @ z) ** 2
            assert abs(direct - viaid) < 1e-10

    def test_plain_residual_examples(self):
        e1 = CaseBasis(rows=((Fraction(1),), (Fraction(0),), (Fraction(0),)))
        assert plain_residual_norm_sq(e1, [1, 0, 0]) == pytest.approx(0.0, abs=1e-12)
        assert plain_residual_norm_sq(e1, [0, 1, 0]) == pytest.approx(1.0, abs=1e-12)


def fp_for(group):
    return FixedPointParams(k=32, f=16, kappa=40, p=group.p)


class TestSecureLambda:
    def test_hwe_is_zero_regardless_of_blinding(self, group256):
        ctx = build_parties(group256, seed=1, record=True)
        lam = secure_inflation_factor(ctx.runtime, group256, (25, 50, 25), (0, 0, 0),
                                      ctx.mpc_pids, ctx.o_case, ctx.o_ctrl, ctx.leader,
                                      ctx.dispenser, ctx.ledger, ctx.owner_keys)
        assert lam == 0

    def test_matches_plain_on_random_tables(self, group256):
        rng = random.Random(5)
        ctx = build_parties(group256, seed=2)
        for _ in range(10):
            case = tuple(rng.randrange(0, 200) for _ in range(3))
            ctrl = tuple(rng.randrange(0, 200) for _ in range(3))
            table = ContingencyCounts(*case, *ctrl)
            try:
                want = inflation_factor_plain(table)
            except DegenerateTableError:
                continue
            lam = secure_inflation_factor(ctx.runtime, group256, case, ctrl,
                                          ctx.mpc_pids, ctx.o_case, ctx.o_ctrl,
                                          ctx.leader, ctx.dispenser, ctx.ledger,
                                          ctx.owner_keys)
            assert lam == want

    def test_count_cap_enforced(self, group256):
        ctx = build_parties(group256, seed=3)
        with pytest.raises(ValidationError):
            secure_inflation_factor(ctx.runtime, group256, (2 ** 21, 0, 0), (0, 0, 0),
                                    ctx.mpc_pids, ctx.o_case, ctx.o_ctrl, ctx.leader,
                                    ctx.dispenser, ctx.ledger, ctx.owner_keys)

    def test_blind_session_failure_aborts(self, group256, monkeypatch):
        ctx = build_parties(group256, seed=3)
        original = btg.triple_session

        def failing_blind(runtime, params, keys, pids, **kwargs):
            if pids[BtgRole.A] == ctx.o_case:  # the joint-blind session only
                raise RuntimeError("boom")
            return original(runtime, params, keys, pids, **kwargs)

        monkeypatch.setattr(btg, "triple_session", failing_blind)
        with pytest.raises(ProtocolAbort, match="chain session 0"):
            secure_inflation_factor(ctx.runtime, group256, (30, 40, 30), (10, 20, 10),
                                    ctx.mpc_pids, ctx.o_case, ctx.o_ctrl, ctx.leader,
                                    ctx.dispenser, ctx.ledger, ctx.owner_keys)

    def test_case_owner_sees_no_control_count_opening(self, group256):
        ctrl_counts = (13, 57, 21)
        ctx = build_parties(group256, seed=4, record=True)
        secure_inflation_factor(ctx.runtime, group256, (40, 80, 40), ctrl_counts,
                                ctx.mpc_pids, ctx.o_case, ctx.o_ctrl, ctx.leader,
                                ctx.dispenser, ctx.ledger, ctx.owner_keys)
        width = group256.element_size
        for rec in transcript_view(ctx.runtime, ctx.o_case):
            if rec.tag.startswith(("open-result", "open:")):
                # openings reaching O_case are the uniform rho/eps values only
                chunks = [int.from_bytes(rec.payload[i:i + width], "big")
                          for i in range(0, len(rec.payload), width)]
                for value in chunks:
                    assert value not in ctrl_counts
                    assert signed_decode(value, group256.p) not in ctrl_counts

    def test_final_opening_goes_to_ctrl_owner_only(self, group256):
        ctx = build_parties(group256, seed=5, record=True)
        secure_inflation_factor(ctx.runtime, group256, (30, 40, 30), (10, 20, 10),
                                ctx.mpc_pids, ctx.o_case, ctx.o_ctrl, ctx.leader,
                                ctx.dispenser, ctx.ledger, ctx.owner_keys)
        # the last opening batch is collected by o_ctrl and never broadcast
        opens = [r for r in ctx.runtime.transcript if r.tag.startswith("open:")]
        final_tag = opens[-1].tag
        final = [r for r in opens if r.tag == final_tag]
        assert {r.dst for r in final} == {ctx.o_ctrl}
        assert not any(r.tag == "open-result:" + final_tag.split(":")[1]
                       for r in ctx.runtime.transcript)


class TestSecureResidual:
    def test_unit_basis_cases(self, group256):
        params = fp_for(group256)
        ctx = build_parties(group256, seed=6)
        basis = CaseBasis(rows=((Fraction(1),), (Fraction(0),), (Fraction(0),)))
        cols = [share_vector(ctx.runtime, ctx.o_case, basis.column(0), ctx.mpc_pids, params)]
        # no truncation: the residual is exact at scale 2^(4f)
        for z, want in (([1, 0, 0], 0), ([0, 1, 0], 2 ** (4 * params.f))):
            z_sh = share_vector(ctx.runtime, ctx.o_ctrl, z, ctx.mpc_pids, params)
            res = residual_norm_sq(ctx.runtime, cols, z_sh, params,
                                   ctx.dispenser, ctx.ledger, ctx.roles)
            assert signed_decode(open_value(ctx.runtime, res, params.p), params.p) == want

    def test_matches_plaintext_oracle(self, group256):
        params = fp_for(group256)
        rng = np.random.default_rng(1)
        ctx = build_parties(group256, seed=7)
        mat = rng.normal(size=(10, 3))
        u_mat, _ = np.linalg.qr(mat)
        basis = CaseBasis(rows=tuple(
            tuple(Fraction(x).limit_denominator(10 ** 12) for x in row) for row in u_mat))
        z = [float(v) for v in rng.normal(size=10) / 4.0]
        cols = [share_vector(ctx.runtime, ctx.o_case, basis.column(j), ctx.mpc_pids, params)
                for j in range(3)]
        z_sh = share_vector(ctx.runtime, ctx.o_ctrl, z, ctx.mpc_pids, params)
        res = residual_norm_sq(ctx.runtime, cols, z_sh, params,
                               ctx.dispenser, ctx.ledger, ctx.roles)
        got = float(fp_decode(open_value(ctx.runtime, res, params.p), screening_params(params)))
        want = plain_residual_norm_sq(basis, z)
        assert abs(got - want) <= 10 * 2 ** -14

    def test_draws_the_control_budget(self, group256):
        # a counting stand-in dispenser: residual_norm_sq draws exactly the budget
        params = fp_for(group256)
        ctx = build_parties(group256, seed=9)

        class Counting:
            def __init__(self, inner):
                self.inner, self.count = inner, 0

            def next_triple(self):
                self.count += 1
                return self.inner.next_triple()

        for dim, rank in ((3, 1), (4, 2), (5, 3)):
            cols = [share_vector(ctx.runtime, ctx.o_case, [0] * dim, ctx.mpc_pids, params)
                    for _ in range(rank)]
            z_sh = share_vector(ctx.runtime, ctx.o_ctrl, [1] * dim, ctx.mpc_pids, params)
            counting = Counting(ctx.dispenser)
            residual_norm_sq(ctx.runtime, cols, z_sh, params, counting, ctx.ledger, ctx.roles)
            assert counting.count == gwas.triples_per_control(dim, rank) == rank * (dim + 1)

    @pytest.mark.parametrize("values", [
        [Fraction(-3, 4), Fraction(5, 3), Fraction(-1, 7), 2, 0],  # negative, fractional
        [0, 1, 2, 2, 1, 0, 1],  # a genotype row
    ])
    def test_owner_deals_the_squared_norm(self, group256, values):
        params = fp_for(group256)
        ctx = build_parties(group256, seed=12)
        z_sh = share_vector(ctx.runtime, ctx.o_ctrl, values, ctx.mpc_pids, params)
        p, encoded = params.p, [fixpt.fp_encode(v, params) for v in values]
        assert len(z_sh) == len(values)
        assert [sum(v) % p for v in zip(*z_sh.columns.values())] == encoded
        assert [sum(v) % p for v in zip(*z_sh.norm_sq.columns.values())] \
            == [sum(e * e for e in encoded) % p]

    def test_control_at_the_frame_cap_matches_oracle(self, group256):
        # ||z||^2 = 181^2 + 2^2 + 1 + 1 = 2^(e-1) - 1, the largest norm
        # validate_inputs admits; the dyadic basis encodes exactly
        params = fp_for(group256)
        half = Fraction(1, 2)
        basis = CaseBasis(rows=((half, half), (half, -half), (half, half), (half, -half)))
        z = (181, -2, 1, -1)
        assert sum(v * v for v in z) == 2 ** (params.e - 1) - 1
        control = ControlRecord("ctrl_000", tuple(Fraction(v) for v in z), (1, 2, 1))
        gwas.validate_inputs(basis, (25, 50, 25), [control], PipelineConfig(fp=params))
        ctx = build_parties(group256, seed=13)
        cols = [share_vector(ctx.runtime, ctx.o_case, basis.column(j), ctx.mpc_pids, params)
                for j in range(basis.rank)]
        z_sh = share_vector(ctx.runtime, ctx.o_ctrl, z, ctx.mpc_pids, params)
        res = residual_norm_sq(ctx.runtime, cols, z_sh, params,
                               ctx.dispenser, ctx.ledger, ctx.roles)
        got = float(fp_decode(open_value(ctx.runtime, res, params.p), screening_params(params)))
        want = plain_residual_norm_sq(basis, z)
        assert want == 16200.5
        assert abs(got - want) <= 10 * 2 ** -14

    def test_z_without_a_norm_rejected_before_any_triple(self, group256):
        params = fp_for(group256)
        ctx = build_parties(group256, seed=14)
        cols = [share_vector(ctx.runtime, ctx.o_case, [0, 1, 0], ctx.mpc_pids, params)]
        z_sh = share_vector(ctx.runtime, ctx.o_ctrl, [1, 1, 0], ctx.mpc_pids, params)
        ctx.runtime.run(ctx.dispenser.mint(gwas.triples_per_control(3, 1)))
        before = (len(ctx.ledger), ctx.runtime.messages_sent, list(ctx.dispenser.pool),
                  ctx.dispenser.count)
        with pytest.raises(ShareError, match="norm"):
            residual_norm_sq(ctx.runtime, cols, z_sh[:], params,
                             ctx.dispenser, ctx.ledger, ctx.roles)
        assert (len(ctx.ledger), ctx.runtime.messages_sent, list(ctx.dispenser.pool),
                ctx.dispenser.count) == before

    def test_two_openings_and_no_truncation(self, group256, monkeypatch):
        # the Beaver batches are protocols that open without spdz.open_values,
        # so the openings are counted on the wire: one open:<id> tag each
        params = fp_for(group256)
        ctx = build_parties(group256, seed=11, record=True)
        cols = [share_vector(ctx.runtime, ctx.o_case, [0, 1, 0], ctx.mpc_pids, params)]
        z_sh = share_vector(ctx.runtime, ctx.o_ctrl, [1, 1, 0], ctx.mpc_pids, params)
        ctx.runtime.run(ctx.dispenser.mint(gwas.triples_per_control(3, 1)))
        calls, start = [], len(ctx.runtime.transcript)
        monkeypatch.setattr(fixpt, "trunc", lambda *args, **kwargs: calls.append("trunc"))
        residual_norm_sq(ctx.runtime, cols, z_sh, params, ctx.dispenser, ctx.ledger, ctx.roles)
        tags = dict.fromkeys(r.tag for r in ctx.runtime.transcript[start:])
        calls += ["open" for tag in tags if tag.startswith("open:")]
        assert calls == ["open", "open"]

    def test_rounds_do_not_grow_with_dim_or_rank(self, group256):
        # one round for z, four to mint, two Beaver batches, and the sign
        # test's and the bit's openings, each to one party, per control,
        # whatever its shape (the basis columns, one share_vector each, are
        # dealt before the count starts); the accept bit took 6
        # rounds (16 in all) until the sign test's truncation became one
        # opening to the mask owner, and 3 (13 in all) while the bit was
        # opened to every server
        params = fp_for(group256)
        config = PipelineConfig(fp=params)
        ctx = build_parties(group256, seed=10)
        rounds = []
        for dim, rank in ((3, 1), (6, 2), (6, 5)):
            cols = [share_vector(ctx.runtime, ctx.o_case, [0] * dim, ctx.mpc_pids, params)
                    for _ in range(rank)]
            before = ctx.runtime.rounds
            z_sh = share_vector(ctx.runtime, ctx.o_ctrl, [1] * dim, ctx.mpc_pids, params)
            ctx.runtime.run(ctx.dispenser.mint(gwas.triples_per_control(dim, rank)))
            res = residual_norm_sq(ctx.runtime, cols, z_sh, params,
                                   ctx.dispenser, ctx.ledger, ctx.roles)
            secure_accept_bit(ctx.runtime, res, config, ctx.roles)
            rounds.append(ctx.runtime.rounds - before)
        assert rounds == [1 + 4 + 4 + 2] * 3

    def first_batch_window(self, group256, seed):
        """One residual_norm_sq on owned factors, dim 3 and rank 2, on
        minted triples: the context, the messages of the control's first
        Beaver batch (those under its batch id), its triples and factors."""
        params = fp_for(group256)
        ctx = build_parties(group256, seed=seed, record=True)
        cols = [share_vector(ctx.runtime, ctx.o_case, col, ctx.mpc_pids, params)
                for col in ([1, 0, 0], [0, Fraction(1, 2), Fraction(-3, 4)])]
        z_sh = share_vector(ctx.runtime, ctx.o_ctrl, [1, 2, 0], ctx.mpc_pids, params)
        ctx.runtime.run(ctx.dispenser.mint(gwas.triples_per_control(3, 2)))
        triples, start = list(ctx.dispenser.pool)[:6], len(ctx.runtime.transcript)
        residual_norm_sq(ctx.runtime, cols, z_sh, params, ctx.dispenser, ctx.ledger, ctx.roles)
        window = ctx.runtime.transcript[start:]
        first = window[0].tag.split(":", 1)[1]
        batch = [r for r in window if r.tag.split(":", 1)[1] == first]
        us = [e for col in cols for e in col.entries]
        return ctx, batch, triples, us, z_sh.entries * 2

    def test_mpc_3_receives_no_first_batch_message(self, group256):
        # a' reaches O_case and b' O_ctrl, 4 messages, and the swap 2 more;
        # while the batch opened x - a' and y - b' to every server, MPC_3
        # sent its differences and got their broadcast
        ctx, batch, _, _, _ = self.first_batch_window(group256, 30)
        assert len(batch) == 6
        assert {r.dst for r in batch} == {ctx.o_case, ctx.o_ctrl}

    def test_e_reaches_only_o_ctrl_and_d_only_o_case(self, group256):
        p = group256.p
        ctx, batch, triples, us, zs = self.first_batch_window(group256, 31)
        a, b = ([dispense.reconstruct(getattr(t, name).values(), p) for t in triples]
                for name in ("a_shares", "b_shares"))
        e = {(u - v) % p for u, v in zip(us, a)}
        d = {(z - v) % p for z, v in zip(zs, b)}
        w = (p.bit_length() + 7) // 8
        received = {}
        for r in ctx.runtime.transcript:
            received.setdefault(r.dst, set()).update(
                int.from_bytes(r.payload[i:i + w], "big") for i in range(0, len(r.payload), w))
        assert [pid for pid, values in received.items() if values & e] == [ctx.o_ctrl]
        assert [pid for pid, values in received.items() if values & d] == [ctx.o_case]
        assert {(r.src, r.dst) for r in batch if r.tag.startswith("swap:")} \
            == {(ctx.o_case, ctx.o_ctrl), (ctx.o_ctrl, ctx.o_case)}

    def test_two_mode_owners_read_their_own_masks_a_and_b(self, group256, monkeypatch):
        # in two mode O_case is O_x and drew each triple's blind r_a, and
        # O_ctrl drew r_b.  The collapse hands O_case a' = s_a*r_a*a, so it
        # reads s_a*a = a'/r_a, and a is a square, so chi(a'/r_a) is the
        # holder's sign s_a and a itself follows; O_ctrl reads s_b and b
        # alike.  Neither reads the other's mask: O_case gets no b' share
        # and O_ctrl no a' share, so e and d stay masked to their receivers
        p, params = group256.p, fp_for(group256)
        ctx = build_parties(group256, seed=34, record=True, blinding="two")
        session, outcomes = btg.triple_session, []

        def recorded(runtime, params, keys, pids, *args, **kwargs):
            outcome = yield from session(runtime, params, keys, pids, *args, **kwargs)
            if pids[BtgRole.A] == ctx.btg_pids[BtgRole.A]:
                outcomes.append(outcome)
            return outcome

        monkeypatch.setattr(btg, "triple_session", recorded)
        cols = [share_vector(ctx.runtime, ctx.o_case, col, ctx.mpc_pids, params)
                for col in ([1, 0, 0], [0, Fraction(1, 2), Fraction(-3, 4)])]
        z_sh = share_vector(ctx.runtime, ctx.o_ctrl, [1, 2, 0], ctx.mpc_pids, params)
        ctx.runtime.run(ctx.dispenser.mint(gwas.triples_per_control(3, 2)))
        [outcome] = outcomes
        triples, start = list(ctx.dispenser.pool)[:6], len(ctx.runtime.transcript)
        residual_norm_sq(ctx.runtime, cols, z_sh, params, ctx.dispenser, ctx.ledger, ctx.roles)
        window = ctx.runtime.transcript[start:]
        first = window[0].tag.split(":", 1)[1]
        for owner, role, name in ((ctx.o_case, BtgRole.A, "a_shares"),
                                  (ctx.o_ctrl, BtgRole.B, "b_shares")):
            [seed] = [r.payload for r in ctx.runtime.transcript
                      if (r.src, r.dst) == (owner, ctx.btg_pids[role])
                      and r.tag.startswith(dispense.BLIND_TAG + ":")]
            held = [getattr(t, name)[owner] for t in triples]
            received = [r for r in window if r.dst == owner and r.tag == "open:" + first]
            assert len(received) == len(ctx.mpc_pids) - 1
            for r in received:
                held = [(h + v) % p for h, v in zip(held, modmath.decode_residues(r.payload, 6, p))]
            unblinded = [h * pow(r, -1, p) % p for h, r in zip(held, dispense._blinds(seed, 6, p))]
            signs = [1 if legendre(v, p) == 1 else -1 for v in unblinded]
            assert [s * v % p for s, v in zip(signs, unblinded)] == outcome[role][:6]
            assert -1 in signs and 1 in signs

    def test_basis_and_z_of_one_owner_rejected_before_any_triple_is_spent(self, group256):
        # owned factors need two owners; the batch refuses before it spends
        # or sends anything
        params = fp_for(group256)
        ctx = build_parties(group256, seed=32)
        cols = [share_vector(ctx.runtime, ctx.o_ctrl, [0, 1, 0], ctx.mpc_pids, params)]
        z_sh = share_vector(ctx.runtime, ctx.o_ctrl, [1, 1, 0], ctx.mpc_pids, params)
        ctx.runtime.run(ctx.dispenser.mint(gwas.triples_per_control(3, 1)))
        sent = ctx.runtime.messages_sent
        with pytest.raises(ShareError, match="two owners"):
            residual_norm_sq(ctx.runtime, cols, z_sh, params, ctx.dispenser, ctx.ledger,
                             ctx.roles)
        assert (len(ctx.ledger), ctx.runtime.messages_sent) == (0, sent)

    @pytest.mark.parametrize("basis_kind", ["plain-shares", "two-owners"])
    def test_basis_without_one_owner_rejected_before_any_triple_is_drawn(self, group256,
                                                                        basis_kind):
        # the first batch multiplies U's owner's kept entries: columns that
        # carry none, or two owners' entries, are refused before a draw
        params = fp_for(group256)
        ctx = build_parties(group256, seed=33)
        if basis_kind == "plain-shares":
            vec = share_vector(ctx.runtime, ctx.o_case, [0, 1, 0, 1, 0, 0], ctx.mpc_pids, params)
            cols = [vec[0:3], vec[3:6]]
        else:
            cols = [share_vector(ctx.runtime, owner, [0, 1, 0], ctx.mpc_pids, params)
                    for owner in (ctx.o_case, ctx.o_ctrl)]
        z_sh = share_vector(ctx.runtime, ctx.o_ctrl, [1, 1, 0], ctx.mpc_pids, params)
        sent = ctx.runtime.messages_sent
        with pytest.raises(ShareError, match="one owner"):
            residual_norm_sq(ctx.runtime, cols, z_sh, params, ctx.dispenser, ctx.ledger,
                             ctx.roles)
        assert (ctx.dispenser.count, len(ctx.ledger), ctx.runtime.messages_sent) == (0, 0, sent)

    def test_dimension_mismatch(self, group256):
        params = fp_for(group256)
        ctx = build_parties(group256, seed=8)
        cols = [share_vector(ctx.runtime, ctx.o_case, [1, 0], ctx.mpc_pids, params)]
        z_sh = share_vector(ctx.runtime, ctx.o_ctrl, [1, 0, 0], ctx.mpc_pids, params)
        with pytest.raises(ShapeError):
            residual_norm_sq(ctx.runtime, cols, z_sh, params,
                             ctx.dispenser, ctx.ledger, ctx.roles)


def small_pipeline_inputs(group):
    """Two in-span controls, three far controls, HWE-compatible counts."""
    span_rows = [(0, 1, 2, 0, 1, 0), (2, 0, 1, 1, 0, 1)]
    basis = orthonormal_columns(span_rows)
    controls = [ControlRecord.from_genotype_row("ctrl_%03d" % i, row)
                for i, row in enumerate(span_rows + [(2, 2, 0, 1, 0, 2),
                                                     (0, 0, 1, 2, 2, 2),
                                                     (1, 2, 2, 2, 0, 0)])]
    config = PipelineConfig(fp=fp_for(group))
    case_counts = (25, 50, 25)
    return basis, case_counts, controls, config


class TestFilterPipeline:
    def test_secure_matches_plain_decisions(self, group256):
        basis, case_counts, controls, config = small_pipeline_inputs(group256)
        plain = plain_filter_controls(basis, case_counts, controls, config)
        secure = filter_controls(group256, basis, case_counts, controls, config, seed=11)
        assert secure["accepted"] == plain["accepted"] == ["ctrl_000", "ctrl_001"]
        assert secure["lambda"] == plain["lambda"]
        assert secure["lambda_ok"] == plain["lambda_ok"]
        assert secure["triple_count"] > 0

    def test_pool_drained_and_ledger_complete(self, group256, tmp_path):
        basis, case_counts, controls, config = small_pipeline_inputs(group256)
        ledger_file = tmp_path / "ledger.jsonl"
        result = filter_controls(group256, basis, case_counts, controls, config, seed=11,
                                 ledger_path=ledger_file)
        ctx = result["context"]
        assert not ctx.dispenser.pool
        budget = len(controls) * basis.rank * (basis.dim + 1) + gwas.LAMBDA_TRIPLES
        lines = ledger_file.read_text().splitlines()
        assert result["triple_count"] == len(lines) == len(ctx.ledger) == budget

    # n >= 1: per control 4 for the mint and the residual's first Beaver
    # batch, which opens beside hop 3 and gets its broadcast beside the c'
    # deal, 2 for the second batch, and 2 for the accept bit (the sign
    # test's opening to the mask owner, the bit's opening to O_ctrl);
    # lambda 6 (counts and blind 1, products 2, products 2, opening 1), its
    # triples minted with the last control's.  Each block's z deal (the
    # first with the basis) and lambda's blind chain run beside the block's
    # first mint and add no round.  n = 0: lambda's mint 4 and its 6.  So
    # 8n + 6, and 10 for n = 0.  While the first batch waited for the whole
    # mint (4 + 4 per control) and the bit was opened to every server (3),
    # a run took 11n + 6; while the deals and the blind chain ran alone,
    # 10 + 11n + (ceil(n / Z_BLOCK) - 1) and 14; while the sign test dealt
    # its masks, opened c to a third server that broadcast it, and dealt its
    # carry, the accept bit took 6 rounds, so 10 + 14n + ....
    ROUNDS = {0: 10, 1: 14, 3: 30, gwas.Z_BLOCK + 1: 8 * (gwas.Z_BLOCK + 1) + 6}

    @pytest.mark.parametrize("n,rank", [(1, 1), (1, 2), (3, 1), (3, 2), (0, 2),
                                        (gwas.Z_BLOCK + 1, 1)])
    def test_round_schedule(self, group256, n, rank):
        basis, case_counts, controls, config = small_pipeline_inputs(group256)
        if rank == 1:
            basis = orthonormal_columns([[float(v) for v in basis.column(0)]])
        assert basis.rank == rank
        controls = [ControlRecord("ctrl_%03d" % i, c.vector, c.counts)
                    for i, c in zip(range(n), itertools.cycle(controls))]
        result = filter_controls(group256, basis, case_counts, controls, config, seed=19)
        assert result["context"].runtime.rounds == self.ROUNDS[n]
        plain = plain_filter_controls(basis, case_counts, controls, config)
        assert result["accepted"] == plain["accepted"]
        assert result["lambda"] == plain["lambda"]

    def test_z_dealt_one_block_at_a_time(self, group256, monkeypatch):
        basis, case_counts, controls, config = small_pipeline_inputs(group256)
        monkeypatch.setattr(gwas, "Z_BLOCK", 2)
        share_batches, z_batches, case_batches = spdz.share_batches, [], []

        def recording(runtime, parties, batches, p):
            batches = list(batches)  # parties[0] is O_case, parties[1] O_ctrl
            z_batches.extend(len(secrets) for owner, secrets in batches if owner == parties[1])
            case_batches.extend(len(secrets) for owner, secrets in batches
                                if owner == parties[0])
            return share_batches(runtime, parties, batches, p)

        monkeypatch.setattr(spdz, "share_batches", recording)
        result = filter_controls(group256, basis, case_counts, controls, config, seed=19)
        # five controls of dimension 6 in blocks of two, each control its 6
        # entries and its ||z||^2, then lambda's counts;
        # truncation deals nothing, since its masks stay in their owners'
        # shares (while it dealt them, a run took 10 + 14 * 5 + 2 rounds),
        # and each block's deal rides its first mint (while they ran alone,
        # 10 + 11 * 5 + 2); each first Beaver batch overlaps its mint and
        # the accept bit opens to O_ctrl alone (before both, 11 * 5 + 6).
        # O_case deals only lambda's counts: it keeps the basis, the owned
        # factor of each first Beaver batch, instead of dealing it
        assert z_batches == [14, 14, 7, 3]
        assert case_batches == [3]
        assert result["context"].runtime.rounds == 8 * 5 + 6
        assert result["accepted"] == ["ctrl_000", "ctrl_001"]

    def test_first_batch_opens_beside_its_mint(self, group256, monkeypatch):
        # each control's first Beaver batch opens a' and b' to their owners
        # with its mint's hop 3, and swaps e and d with the c' deal, the
        # mint's last round (the broadcast of x - a' and y - b' rode it while
        # the batch opened to every server)
        basis, case_counts, controls, config = small_pipeline_inputs(group256)
        rounds, pump = [], net.Runtime.pump

        def recording(self):
            start = len(self.transcript)
            delivered = pump(self)
            if delivered:
                rounds.append(self.transcript[start:])
            return delivered

        monkeypatch.setattr(net.Runtime, "pump", recording)
        filter_controls(group256, basis, case_counts, controls[:3], config, seed=19, record=True)
        starts, hop3, deal_c = ([i for i, msgs in enumerate(rounds) if any(map(hit, msgs))]
                                for hit in (lambda m: m.tag.startswith("blind-r:"),
                                            lambda m: m.tag == btg.BTG_TAG
                                            and m.dst.role == "BTG_C",
                                            lambda m: m.tag.startswith("triple-c:")))
        assert len(starts) == len(hop3) == len(deal_c) == 3
        for start, h, c in zip(starts, hop3, deal_c):
            assert (h, c) == (start + 2, start + 3)
            opened = [m.tag for msgs in rounds[start:] for m in msgs if m.tag.startswith("open:")]
            first = opened[0]
            assert {m.tag for m in rounds[h] if m.tag.startswith("open:")} == {first}
            assert {m.tag for m in rounds[c] if m.tag.startswith(("open-result:", "swap:"))} \
                == {first.replace("open:", "swap:")}

    def test_first_batches_reach_no_third_server(self, group256):
        # each control's first batch sends a' shares to O_case, b' shares to
        # O_ctrl and the swap between them: MPC_3 receives none of it
        basis, case_counts, controls, config = small_pipeline_inputs(group256)
        result = filter_controls(group256, basis, case_counts, controls, config, seed=19,
                                 record=True)
        ctx, transcript = result["context"], result["context"].runtime.transcript
        firsts = {r.tag.split(":", 1)[1] for r in transcript if r.tag.startswith("swap:")}
        assert len(firsts) == len(controls)
        batch = [r for r in transcript if r.tag.split(":", 1)[-1] in firsts]
        assert {r.dst for r in batch} == {ctx.o_case, ctx.o_ctrl}
        assert len(batch) == 6 * len(controls)

    def test_no_accept_bit_reaches_mpc_1_or_mpc_3(self, group256, monkeypatch):
        # the sign test opens its masked value to the mask owner (MPC_1), and
        # the bit goes to O_ctrl (MPC_2) alone
        basis, case_counts, controls, config = small_pipeline_inputs(group256)
        windows, accept_bit = [], gwas.secure_accept_bit

        def recording(runtime, *args):
            start = len(runtime.transcript)
            decision = accept_bit(runtime, *args)
            windows.append(runtime.transcript[start:])
            return decision

        monkeypatch.setattr(gwas, "secure_accept_bit", recording)
        result = filter_controls(group256, basis, case_counts, controls, config, seed=19,
                                 record=True)
        ctx = result["context"]
        assert len(windows) == len(controls)
        for window in windows:
            masked, bit = dict.fromkeys(r.tag for r in window)
            assert masked.startswith("open:") and bit.startswith("open:")
            assert {r.dst for r in window if r.tag == masked} == {ctx.o_case}
            assert {r.dst for r in window if r.tag == bit} == {ctx.o_ctrl}
            assert not [r for r in window if r.dst in (ctx.mpc_pids[0], ctx.mpc_pids[2])
                        and r.tag == bit]

    def test_mpc_3_sees_the_same_shapes_whatever_the_decisions(self, group256):
        basis, case_counts, controls, config = small_pipeline_inputs(group256)
        views = []
        for chosen in (controls[:2], controls[3:]):
            chosen = [ControlRecord("ctrl_%03d" % i, c.vector, c.counts)
                      for i, c in enumerate(chosen)]
            result = filter_controls(group256, basis, case_counts, chosen, config, seed=19,
                                     record=True)
            views.append((result["accepted"],
                          [(r.tag, len(r.payload))
                           for r in transcript_view(result["context"].runtime,
                                                    result["context"].mpc_pids[2])]))
        (accepted, view), (rejected, other) = views
        assert accepted == ["ctrl_000", "ctrl_001"] and rejected == []
        assert view and view == other

    # wire bytes of the same runs: per batch the holder of c's correction
    # share per triple plus two seeds, a seed per server from each holder of
    # a and b, and their blind seeds to C with a sign byte per triple, and
    # every deal of inputs or masks two seeds.  While every holder sent
    # correction shares and before shares and blinds became seeds they were
    # 16,537, 22,521, 39,103 and 56,287 bytes.  Minting lambda's
    # triples with the last control's saved one batch's fixed bytes, 179
    # (two blind seeds, three 17-byte BTG hop headers and three holders' two
    # seeds), and dealing every z in one batch one seed pair, 32, per control
    # after the first: from 11,033, 14,841, 26,303 and 37,727 bytes.  The
    # sign test's opening to the mask owner alone saved 160 bytes per control
    # (two mask seed pairs 64, the broadcast of c 64, the carry's seed pair
    # 32): from 10,854, 14,662, 26,060 and 37,484 bytes.  Sharing each hop's
    # randomness across a batch of K <= 64 triples sends one 32-byte u per
    # hop instead of K, which saved 3 * 32 * (K - 1) bytes per batch: batches
    # of 18, 25, 13 + 13 + 18 and 20 + 20 + 25 triples, from 10,694, 14,502,
    # 25,580 and 37,004 bytes.  O_ctrl dealing ||z||^2 with z, for no bytes,
    # spares the dim = 6 products z_i * z_i per control, and with each
    # triple 448 bytes (three 32-byte hop v's, three holders' 32-byte
    # corrections, and four 32-byte values each way to open x - a' and
    # y - b'): 2,688 bytes per control, from 9,062, 12,198, 21,644 and
    # 31,052 bytes.  Opening the accept bit to O_ctrl alone spares its
    # broadcast to the two other servers, two 32-byte values per control:
    # from 6,374, 9,510, 13,580 and 22,988 bytes.  Dealing single-mode a'
    # and b' as seeds only sends each server a seed from the holders of a
    # and b, and C their blind seeds with a sign byte per triple: a batch of
    # K triples saves 2 * 32 * K correction bytes and adds 2 * K sign bytes
    # and two 16-byte seeds to MPC_1, 62 * K - 32 bytes, over batches of
    # 12, 19, 7 + 7 + 12 and 14 + 14 + 19 triples: from 6,310, 9,446,
    # 13,388 and 22,796 bytes.  Owned first batches send each a' and b'
    # share to its owner and swap e and d, 6 values per product where the
    # opening to every server sent 8, which saves 2 * rank * dim * 32 bytes
    # per control: from 5,598, 8,300, 11,872 and 19,978 bytes.  Since O_case
    # keeps the basis instead of dealing it, its two 16-byte seeds are gone,
    # 32 bytes per run: from 5,214, 7,532, 10,720 and 17,674 bytes.
    WIRE_BYTES = {(1, 1): 5_182, (1, 2): 7_500, (3, 1): 10_688, (3, 2): 17_642}

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("n", [1, 3])
    def test_wire_bytes(self, group256, n, rank):
        basis, case_counts, controls, config = small_pipeline_inputs(group256)
        if rank == 1:
            basis = orthonormal_columns([[float(v) for v in basis.column(0)]])
        result = filter_controls(group256, basis, case_counts, controls[:n], config, seed=19)
        assert result["context"].runtime.bytes_sent == self.WIRE_BYTES[n, rank]

    def test_truncations_reach_only_the_mask_owner(self, group256, monkeypatch):
        basis, case_counts, controls, config = small_pipeline_inputs(group256)
        calls = record_truncations(monkeypatch)
        result = filter_controls(group256, basis, case_counts, controls[:2], config, seed=19,
                                 record=True)
        ctx = result["context"]
        assert len(calls) == 2
        assert_only_received_by(calls, ctx.o_case, ctx.mpc_pids[1:])

    def test_empty_control_list(self, group256):
        basis, case_counts, _, config = small_pipeline_inputs(group256)
        result = filter_controls(group256, basis, case_counts, [], config, seed=12)
        assert result["accepted"] == []
        assert result["lambda"] == 0  # HWE case table alone

    def test_control_dimension_checked(self, group256):
        basis, case_counts, _, config = small_pipeline_inputs(group256)
        bad = [ControlRecord.from_genotype_row("ctrl_000", (0, 1))]
        with pytest.raises(ShapeError):
            filter_controls(group256, basis, case_counts, bad, config, seed=14)

    def test_field_mismatch_rejected(self, group256):
        basis, case_counts, controls, _ = small_pipeline_inputs(group256)
        config = PipelineConfig()  # default fp field != group field
        with pytest.raises(ValidationError):
            filter_controls(group256, basis, case_counts, controls, config, seed=15)

    def test_four_party_committee(self, group256):
        basis, case_counts, controls, _ = small_pipeline_inputs(group256)
        config = PipelineConfig(fp=fp_for(group256), parties=4)
        result = filter_controls(group256, basis, case_counts, controls, config, seed=16)
        assert result["accepted"] == ["ctrl_000", "ctrl_001"]

    def test_all_in_span_hwe_matched_lambda_zero(self, group256):
        # every control lies in span(U) and carries (2,4,2)-proportioned
        # counts, so the combined table stays in exact Hardy-Weinberg
        # proportion: 4*(25+2a)*(25+2a) == (50+4a)^2 for any accepted count a
        span_rows = [(0, 0, 1, 1, 1, 1, 2, 2), (2, 2, 1, 1, 1, 1, 0, 0)]
        basis = orthonormal_columns(span_rows)
        controls = [ControlRecord.from_genotype_row("ctrl_%03d" % i, row)
                    for i, row in enumerate(span_rows)]
        assert all(c.counts == (2, 4, 2) for c in controls)
        config = PipelineConfig(fp=fp_for(group256))
        result = filter_controls(group256, basis, (25, 50, 25), controls, config, seed=17)
        assert result["accepted"] == ["ctrl_000", "ctrl_001"]
        assert result["lambda"] == 0
        assert result["lambda_ok"]

    def test_oversized_control_rejected_before_any_triple(self, group256, monkeypatch):
        # ||z||^2 = 80000 >= 2^(k-f-1) = 32768 wraps the Q<32,16> frame: the
        # secure filter would accept this control, the oracle rejects it
        basis, case_counts, controls, config = far_control_inputs(group256, 200)
        assert plain_filter_controls(basis, case_counts, controls, config)["accepted"] == []
        monkeypatch.setattr(gwas, "build_parties", None)  # no parties, so no triple
        with pytest.raises(ValidationError):
            filter_controls(group256, basis, case_counts, controls, config, seed=18)

    def test_control_totals_past_the_cap_rejected_before_any_triple(self, group256,
                                                                    monkeypatch):
        # three controls (0, 1, 0) in the basis's span hold six 0s in all,
        # past a cap of 4: every control is accepted, and the oracle's lambda
        # over (8, 5, 2) is 13/63, but lambda's shared control totals cannot
        # hold it.  Both runs refuse it before any triple
        monkeypatch.setattr(gwas, "COUNT_CAP", 4)
        basis = orthonormal_columns([(0, 1, 0)])
        controls = [ControlRecord.from_genotype_row("ctrl_%03d" % i, (0, 1, 0))
                    for i in range(3)]
        config = PipelineConfig(fp=fp_for(group256))
        assert plain_filter_controls(basis, (2, 2, 2), controls, config)["lambda"] \
            == Fraction(13, 63)
        monkeypatch.setattr(gwas, "build_parties", None)  # no parties, so no triple
        with pytest.raises(ValidationError, match="count 6 outside"):
            gwas.validate_inputs(basis, (2, 2, 2), controls, config)  # the oracle's check
        with pytest.raises(ValidationError, match="count 6 outside"):
            filter_controls(group256, basis, (2, 2, 2), controls, config, seed=18)

    def test_control_under_norm_bound_matches_oracle(self, group256):
        basis, case_counts, controls, config = far_control_inputs(group256, 100)
        plain = plain_filter_controls(basis, case_counts, controls, config)
        secure = filter_controls(group256, basis, case_counts, controls, config, seed=18)
        assert secure["accepted"] == plain["accepted"] == []
        assert secure["lambda"] == plain["lambda"]


def screened_run(group, blinding):
    """A recorded filter_controls run: dim 12, rank 3, 4 controls, seed 5."""
    rng = random.Random(5)
    rows = [tuple(rng.randrange(3) for _ in range(12)) for _ in range(5)]
    basis = orthonormal_columns(rows[:3])
    controls = [ControlRecord.from_genotype_row("ctrl_%d" % i, row)
                for i, row in enumerate(rows[1:])]
    config = PipelineConfig(fp=fp_for(group))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gwas, "build_parties", functools.partial(build_parties, blinding=blinding))
        ctx = filter_controls(group, basis, (25, 50, 25), controls, config, seed=5,
                              record=True)["context"]
    return ctx, basis, controls, config.fp


@pytest.fixture(scope="module")
def screened(group256):
    return screened_run(group256, "single")


@pytest.fixture(scope="module")
def screened_two(group256):
    return screened_run(group256, "two")


def first_batch_openings(ctx, pid, dim, rank, p):
    """Each control's first-batch differences as pid's view holds them, in
    control order, or None for a control whose differences pid never sees.

    That batch multiplies u_ji * z_i (pair j*dim + i), and its two owners
    swap rho = x - a' (O_case sends it) and eps = y - b' (O_ctrl sends it),
    returned for pair k at 2k and 2k + 1.  No other server receives either;
    they reached every server while the batch opened them to all.
    """
    count = dim * rank
    swaps = [rec for rec in ctx.runtime.transcript if rec.tag.startswith(spdz.SWAP_TAG + ":")]
    seen = {}
    for rec in swaps:
        if pid in (rec.src, rec.dst):
            seen.setdefault(rec.tag, {})[rec.src] = modmath.decode_residues(rec.payload, count, p)
    openings = []
    for tag in dict.fromkeys(rec.tag for rec in swaps):
        opened = None
        if tag in seen:
            opened = [0] * (2 * count)
            opened[0::2], opened[1::2] = seen[tag][ctx.o_case], seen[tag][ctx.o_ctrl]
        openings.append(opened)
    return openings


def basis_encodings(basis, params):
    return [[fixpt.fp_encode(v, params) for v in basis.column(j)] for j in range(basis.rank)]


def square_candidates(ctx, pid, dim, rank, params, basis):
    """Genotype values pid's view admits for each entry of each control.

    A server that knows c' = a'*b' and the basis entry u_ji tests each
    candidate z in {0, 1, 2}, encoded, with (u_ji - rho)(z - eps) = c' on
    the u_ji * z_i products; every server is handed the basis encodings,
    which makes it at least as strong as one testing (z - rho)(z - eps) = c'
    on a z_i^2 product.  c' counts as known when pid received it, or
    received a raw c and a blind r with c' = r^2 * c.
    """
    p, width = params.p, (params.p.bit_length() + 7) // 8
    received = {int.from_bytes(rec.payload[i:i + width], "big")
                for rec in transcript_view(ctx.runtime, pid) if rec.dst == pid
                for i in range(0, len(rec.payload) - width + 1, width)}
    unblind = [pow(r, -2, p) for r in received if r]
    cols = basis_encodings(basis, params)

    def known(c):
        return c in received or any(c * u % p in received for u in unblind)

    def passes(opened, i, g):
        z = g * 2 ** params.f
        return opened is not None and any(
            known((col[i] - opened[2 * k]) * (z - opened[2 * k + 1]) % p)
            for k, col in zip(range(i, dim * rank, dim), cols))

    return [[g for g in (0, 1, 2) if passes(opened, i, g)]
            for opened in first_batch_openings(ctx, pid, dim, rank, p) for i in range(dim)]


def legendre(v, p):
    return pow(v, (p - 1) // 2, p)


def blind_candidates(ctx, pid, dim, rank, params):
    """Genotype values that pass chi(y - eps) = chi(r_b) with the blinds
    pid's view holds, chi being the Legendre symbol.

    pid holds a blind when it sent or received its seed: in two mode O_y
    sends r_b's.  b is a square, so without signs chi(b') = chi(r_b), and
    each opening of z_i (eps of pair j*dim + i) then tests every candidate.
    The n-th seed to a holder blinds the n-th control's batch; a control
    with no blind or no opening in the view keeps every candidate.
    """
    p, pairs = params.p, dim * rank
    square = ctx.dispenser.mode == "two"
    blinds = {}  # holder -> one list of blinds per batch
    for rec in transcript_view(ctx.runtime, pid):
        if rec.tag.startswith("blind-r:"):
            roots = [1 + x for x in modmath.expand_residues(rec.payload, pairs, p - 1)]
            blinds.setdefault(rec.dst, []).append([r * r % p if square else r for r in roots])
    r_b = blinds.get(ctx.btg_pids[BtgRole.B], [])

    def passes(opened, n, i, g):
        z = fixpt.fp_encode(g, params)
        tests = ([(2 * k + 1, r_b[n][k]) for k in range(i, pairs, dim)]
                 if n < len(r_b) and opened is not None else [])
        return all(legendre(z - opened[o], p) == legendre(r, p) for o, r in tests)

    return [[g for g in (0, 1, 2) if passes(opened, n, i, g)]
            for n, opened in enumerate(first_batch_openings(ctx, pid, dim, rank, p))
            for i in range(dim)]


def pairwise_candidates(ctx, pid, dim, rank, params, basis):
    """Genotype values that pass chi(x - rho) = chi(y - eps), that is
    chi(a') = chi(b'), which holds whenever a'/b' is a square.

    O_case knows the basis encodings, so it tests it on each u_ji * z_i;
    the other servers have no product whose x they know, and keep every
    candidate, as does a control whose differences O_case never sees.
    """
    p = params.p
    known = basis_encodings(basis, params) if pid == ctx.o_case else []

    def passes(opened, i, g):
        z = fixpt.fp_encode(g, params)
        return opened is None or all(
            legendre(col[i] - opened[2 * k], p) == legendre(z - opened[2 * k + 1], p)
            for k, col in zip(range(i, dim * rank, dim), known))

    return [[g for g in (0, 1, 2) if passes(opened, i, g)]
            for opened in first_batch_openings(ctx, pid, dim, rank, p) for i in range(dim)]


def assert_no_square_recovery(screened):
    ctx, basis, _, params = screened
    for pid in ctx.mpc_pids:
        survivors = square_candidates(ctx, pid, basis.dim, basis.rank, params, basis)
        assert len(survivors) == 48
        assert not any(survivors), pid


def assert_no_legendre_pins(screened):
    ctx, basis, controls, params = screened
    truth = [[int(v)] for ctrl in controls for v in ctrl.vector]
    for pid in ctx.mpc_pids:
        for survivors in (blind_candidates(ctx, pid, basis.dim, basis.rank, params),
                          pairwise_candidates(ctx, pid, basis.dim, basis.rank, params, basis)):
            assert len(survivors) == 48
            assert sum(s == t for s, t in zip(survivors, truth)) <= 12, pid


def test_no_server_recovers_a_genotype_from_the_squares(screened):
    # while the leader got raw c it kept 48 of 48
    assert_no_square_recovery(screened)


def test_no_server_pins_a_genotype_from_legendre_symbols(screened):
    # while O_case drew the single-mode blind, the blind filter pinned 44 of
    # 48 entries in its view and the pairwise filter 37 of 48
    assert_no_legendre_pins(screened)


def test_two_mode_server_recovers_no_genotype_from_the_squares(screened_two):
    assert_no_square_recovery(screened_two)


def test_two_mode_server_pins_no_genotype_from_legendre_symbols(screened_two):
    # while two-mode a', b' and the owners' blinds were all squares, the
    # pairwise filter pinned 45 of 48 entries in O_case's view and the blind
    # filter 43 of 48 in O_ctrl's
    assert_no_legendre_pins(screened_two)


def far_control_inputs(group, big):
    """Basis e1, e2 in dimension 4 and the control (0, 0, big, big)."""
    one, zero = Fraction(1), Fraction(0)
    basis = CaseBasis(rows=((one, zero), (zero, one), (zero, zero), (zero, zero)))
    control = ControlRecord("ctrl_000", tuple(Fraction(v) for v in (0, 0, big, big)), (1, 2, 1))
    return basis, (25, 50, 25), [control], PipelineConfig(fp=fp_for(group))


@st.composite
def small_screening(draw):
    """Basis of rank 1-2 in dim 3-6 and three controls, in span or random."""
    dim = draw(st.integers(3, 6))
    rank = draw(st.integers(1, 2))
    genotype_row = st.tuples(*[st.integers(0, 2)] * dim)
    span_rows = draw(st.lists(genotype_row, min_size=rank, max_size=rank))
    basis = orthonormal_columns(span_rows)
    assume(basis.rank == rank)
    rows = [draw(st.one_of(st.sampled_from(span_rows), genotype_row)) for _ in range(3)]
    controls = [ControlRecord.from_genotype_row("ctrl_%03d" % i, row)
                for i, row in enumerate(rows)]
    case_counts = draw(st.tuples(*[st.integers(1, 60)] * 3))
    return basis, case_counts, controls


@settings(max_examples=20, deadline=None)
@given(inputs=small_screening(), seed=st.integers(0, 2 ** 16))
def test_secure_filter_matches_oracle_property(group256, inputs, seed):
    basis, case_counts, controls = inputs
    config = PipelineConfig(fp=fp_for(group256))
    tau_sq = float(config.tau) ** 2
    # the 0.02 guard band keeps fixed-point rounding from flipping a decision
    assume(all(abs(plain_residual_norm_sq(basis, c.vector) - tau_sq) > 0.02 for c in controls))
    try:
        plain = plain_filter_controls(basis, case_counts, controls, config)
    except DegenerateTableError:
        assume(False)
    secure = filter_controls(group256, basis, case_counts, controls, config, seed=seed)
    assert secure["accepted"] == plain["accepted"]
    assert secure["lambda"] == plain["lambda"]
