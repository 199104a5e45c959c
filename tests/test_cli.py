import functools
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spdzgen import gwas, modmath
from spdzgen.cli import EXIT_PROTOCOL, EXIT_USAGE, EXIT_VALIDATION, main
from spdzgen.dispense import TripleDispenser
from spdzgen.gwas import COUNT_CAP, GenotypeMatrix, orthonormal_columns, synth_genotypes
from spdzgen.modmath import DEFAULT_GROUP_256, GroupParams
from spdzgen.net import Runtime

from helpers import both_backends, shifted, tamper_sends


def run_cli(*argv):
    return main(list(argv))


class TestGroupgen:
    def test_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "g1.json", tmp_path / "g2.json"
        assert run_cli("groupgen", "--bits", "32", "--seed", "s", "--out", str(out1)) == 0
        assert run_cli("groupgen", "--bits", "32", "--seed", "s", "--out", str(out2)) == 0
        assert out1.read_text() == out2.read_text()
        GroupParams.from_json(out1.read_text())

    def test_invalid_bits_usage_error(self, tmp_path):
        assert run_cli("groupgen", "--bits", "3",
                       "--out", str(tmp_path / "g.json")) == EXIT_USAGE

    def test_256_bit_generation_desk_scale(self, tmp_path):
        import time

        t0 = time.perf_counter()
        assert run_cli("groupgen", "--bits", "256", "--seed", "fresh",
                       "--out", str(tmp_path / "g.json")) == 0
        assert time.perf_counter() - t0 < 60.0
        params = GroupParams.from_json((tmp_path / "g.json").read_text())
        assert params.p.bit_length() == 256


class TestTriples:
    def test_single_smoke(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert run_cli("triples", "-n", "1", "--ledger", str(ledger)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["triples"] == 1
        assert report["invalid"] == 0
        assert report["modexp_per_triple"] > 0
        assert len(ledger.read_text().splitlines()) == 1

    def test_two_randomness_mode(self, capsys):
        assert run_cli("triples", "-n", "2", "--mode", "two") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["invalid"] == 0 and report["mode"] == "two"

    # messages, rounds, modexp per triple and bytes of one batch of 12, keyed
    # by mode.  The session is one chunk of 12 triples: 5 exponentiations per
    # triple and 3 for the chunk, plus the 11 + 11 key pairs the holders of a
    # and c add at this first mint; two mode adds its key product's 8 per
    # triple.  The bytes: BTG hops of 17 + 32*(12 + 1) each, and the holder
    # of c's 12 correction shares to MPC_1 plus two seeds.  In single mode
    # the holders of a and b each send every server a seed (3 * 16) and C
    # their blind seed and 12 sign bytes; in two mode O_x and O_y send two
    # 16-byte blind seeds, the holders of a and b send correction shares and
    # seeds as the holder of c does, and the key product adds three hops of
    # 17 + 2*32*12 (one key pair per party: a u per triple), the sign seed
    # and 12 sign-product bytes.  Two mode's key product runs beside the
    # session, so both modes take 4 rounds (two mode took 7 while it ran
    # after).  Before the session shared its randomness they were 8.0 and
    # 16.0 exponentiations per triple, and every hop was 785 bytes; single
    # mode's bytes were 3 * 433 + 32 + 3 * 416 = 2,579 while its holders of
    # a and b sent correction shares.
    BATCH = {"single": (14, 4, (5 * 12 + 3 + 22) / 12,
                        3 * 433 + 416 + 2 * (3 * 16) + 2 * (16 + 12)),
             "two": (19, 4, (5 * 12 + 3 + 22 + 8 * 12) / 12,
                     3 * 433 + 3 * 785 + 32 + 3 * 416 + 16 + 12)}

    @pytest.mark.parametrize("mode", ["single", "two"])
    def test_twelve_triples_are_one_batch(self, tmp_path, capsys, mode):
        messages, rounds, modexp, sent = self.BATCH[mode]
        ledger = tmp_path / "ledger.jsonl"
        assert run_cli("triples", "-n", "12", "--mode", mode, "--ledger", str(ledger)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["triples"] == 12 and report["invalid"] == 0
        assert report["modexp_per_triple"] == modexp
        assert report["messages_per_triple"] == messages / 12
        assert report["rounds_per_triple"] == rounds / 12
        assert report["bytes_per_triple"] == sent / 12
        ids = [json.loads(line)["triple_id"] for line in ledger.read_text().splitlines()]
        assert ids == ["t%06d" % i for i in range(1, 13)]

    @both_backends
    def test_report_names_the_backend(self, modexp_backend, capsys):
        # CI asserts "libgmp" on this field, so a silent fallback fails there
        assert run_cli("triples", "-n", "1") == 0
        report = json.loads(capsys.readouterr().out)
        gmp = modexp_backend == "loaded" and modmath._open_gmp() is not None
        assert report["modexp_backend"] == ("libgmp" if gmp else "pow")

    @pytest.mark.parametrize("parties", [0, 1, 2])
    def test_fewer_than_three_parties_validation_error(self, capsys, parties):
        assert run_cli("triples", "-n", "1", "--parties", str(parties)) == EXIT_VALIDATION
        assert "need at least 3 MPC parties" in capsys.readouterr().err

    def test_negative_count_usage_error(self, capsys):
        assert run_cli("triples", "-n", "-1") == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_reuse_demo_exits_nonzero(self, capsys):
        assert run_cli("triples", "-n", "1", "--demo-reuse") == EXIT_PROTOCOL

    def test_zero_blinded_component_exits_3(self, capsys):
        # in the 5-bit group a single-mode a' or b', a sum of seed
        # expansions, is zero once in 23 triples, and zero has no blind
        assert run_cli("triples", "-n", "300", "--bits", "5") == EXIT_PROTOCOL
        captured = capsys.readouterr()
        assert captured.out == "" and "zero has no blind" in captured.err

    def test_unwritable_ledger_rejected_before_any_triple(self, tmp_path, capsys, monkeypatch):
        def mint(self, n):
            raise AssertionError("a triple was minted")

        monkeypatch.setattr(TripleDispenser, "mint", mint)
        ledger = tmp_path / "missing" / "x.jsonl"
        assert run_cli("triples", "-n", "50", "--ledger", str(ledger)) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error:")
        assert not ledger.exists()

    def test_nonempty_ledger_rejected_before_any_triple(self, tmp_path, capsys, monkeypatch):
        # a second run would list t000001-t000003 again under other triples
        ledger = tmp_path / "ledger.jsonl"
        assert run_cli("triples", "-n", "3", "--seed", "1", "--ledger", str(ledger)) == 0
        first = ledger.read_bytes()
        capsys.readouterr()

        def mint(self, n):
            raise AssertionError("a triple was minted")

        monkeypatch.setattr(TripleDispenser, "mint", mint)
        assert run_cli("triples", "-n", "3", "--seed", "2",
                       "--ledger", str(ledger)) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert ledger.read_bytes() == first

    def test_corrupted_shares_exit_protocol(self, capsys, monkeypatch):
        tamper_sends(monkeypatch, "triple-a:", shifted(DEFAULT_GROUP_256.p))
        assert run_cli("triples", "-n", "4") == EXIT_PROTOCOL
        assert json.loads(capsys.readouterr().out)["invalid"] > 0


class TestSynth:
    def test_writes_matrix(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run_cli("synth", "--samples", "10", "--snps", "4",
                       "--freq", "0.5", "--seed", "z", "--out", str(out)) == 0
        m = GenotypeMatrix.from_csv(out)
        assert m.samples == 10 and m.snps == 4
        assert m == synth_genotypes(10, 4, 0.5, "z")

    def test_bad_frequency(self, tmp_path):
        assert run_cli("synth", "--samples", "2", "--snps", "2", "--freq", "1.5",
                       "--out", str(tmp_path / "m.csv")) == EXIT_VALIDATION


@pytest.fixture
def pipeline_files(tmp_path):
    span_rows = [(0, 1, 2, 0, 1, 0), (2, 0, 1, 1, 0, 1)]
    ctrl_rows = span_rows + [(2, 2, 0, 1, 0, 2), (0, 0, 1, 2, 2, 2)]
    case = synth_genotypes(30, 6, 0.5, seed="case")
    case_csv = tmp_path / "case.csv"
    case.to_csv(case_csv)
    basis_csv = tmp_path / "basis.csv"
    orthonormal_columns(span_rows).to_csv(basis_csv)
    ctrl_csv = tmp_path / "ctrl.csv"
    GenotypeMatrix(entries=tuple(ctrl_rows)).to_csv(ctrl_csv)
    return case_csv, basis_csv, ctrl_csv


class TestRun:
    def test_secure_run_report(self, pipeline_files, tmp_path):
        case_csv, basis_csv, ctrl_csv = pipeline_files
        out = tmp_path / "report.json"
        code = run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                       "--controls", str(ctrl_csv), "--out", str(out), "--seed", "7")
        assert code == 0
        report = json.loads(out.read_text())
        assert report["accepted"] == ["ctrl_000", "ctrl_001"]
        assert report["config"]["tau"] == 0.3
        assert report["config"]["lambda_max"] == 0.05
        assert set(report["config"]) == {"tau", "lambda_max", "parties", "fixed_point",
                                          "seed", "bits", "mode"}
        assert report["triple_count"] > 0
        assert set(report["lambda"]) == {"num", "den", "value"}

    def test_plaintext_oracle_matches_decisions(self, pipeline_files, tmp_path):
        case_csv, basis_csv, ctrl_csv = pipeline_files
        secure_out = tmp_path / "secure.json"
        plain_out = tmp_path / "plain.json"
        run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                "--controls", str(ctrl_csv), "--out", str(secure_out), "--seed", "7")
        run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                "--controls", str(ctrl_csv), "--out", str(plain_out),
                "--plaintext-oracle")
        secure = json.loads(secure_out.read_text())
        plain = json.loads(plain_out.read_text())
        assert secure["accepted"] == plain["accepted"]
        assert secure["lambda"]["num"] == plain["lambda"]["num"]
        assert secure["lambda"]["den"] == plain["lambda"]["den"]

    def test_reproducible_up_to_timing(self, pipeline_files, tmp_path):
        case_csv, basis_csv, ctrl_csv = pipeline_files
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                    "--controls", str(ctrl_csv), "--out", str(out), "--seed", "42")
            doc = json.loads(out.read_text())
            doc.pop("runtime_ms")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    def test_transcript_export(self, pipeline_files, tmp_path):
        case_csv, basis_csv, ctrl_csv = pipeline_files
        transcript = tmp_path / "transcript.jsonl"
        run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                "--controls", str(ctrl_csv), "--out", str(tmp_path / "r.json"),
                "--seed", "1", "--transcript-out", str(transcript))
        lines = transcript.read_text().splitlines()
        assert len(lines) > 100
        assert all(json.loads(line)["kind"] == "msg" for line in lines)

    def test_four_parties_match_the_oracle(self, pipeline_files, tmp_path):
        # at 4 servers too each control's first Beaver batch stays between
        # O_case (MPC_1) and O_ctrl (MPC_2): the other servers send them
        # their a' and b' shares and receive none of its messages
        case_csv, basis_csv, ctrl_csv = pipeline_files
        transcript = tmp_path / "t.jsonl"
        reports = []
        for extra in (["--transcript-out", str(transcript)], ["--plaintext-oracle"]):
            out = tmp_path / "r.json"
            assert run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                           "--controls", str(ctrl_csv), "--out", str(out), "--seed", "7",
                           "--parties", "4", *extra) == 0
            reports.append(json.loads(out.read_text()))
        secure, oracle = reports
        assert secure["config"]["parties"] == oracle["config"]["parties"] == 4
        assert secure["accepted"] == oracle["accepted"] == ["ctrl_000", "ctrl_001"]
        assert secure["lambda"] == oracle["lambda"]
        records = [json.loads(line) for line in transcript.read_text().splitlines()]
        firsts = {r["tag"].split(":", 1)[1] for r in records if r["tag"].startswith("swap:")}
        assert len(firsts) == 4
        batch = [r for r in records if r["tag"].split(":", 1)[-1] in firsts]
        assert {r["to"] for r in batch} == {"MPC_1", "MPC_2"}
        assert len(batch) == 4 * (2 * 3 + 2)

    def test_missing_input_is_validation_error(self, tmp_path):
        assert run_cli("run", "--case", "nope.csv", "--basis", "nope.csv",
                       "--controls", "nope.csv") == EXIT_VALIDATION

    def test_config_file_overridden_by_flags(self, pipeline_files, tmp_path):
        case_csv, basis_csv, ctrl_csv = pipeline_files
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"tau": "0.5", "seed": 3}))
        out = tmp_path / "r.json"
        run_cli("run", "--config", str(config), "--case", str(case_csv),
                "--basis", str(basis_csv), "--controls", str(ctrl_csv),
                "--out", str(out), "--tau", "0.25")
        assert json.loads(out.read_text())["config"]["tau"] == 0.25

    @pytest.mark.parametrize("doc,error", [
        ({"accept_small": False}, "unknown config key"),
        ({"fixed_point": {"frac": 8}}, "unknown config key"),
        ({"fixed_point": 5}, "must be JSON objects"),
        ([1, 2], "must be JSON objects"),
    ], ids=["top-level", "fixed-point", "fixed-point-not-object", "not-object"])
    def test_malformed_config_rejected(self, pipeline_files, tmp_path, capsys, doc, error):
        case_csv, basis_csv, ctrl_csv = pipeline_files
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert run_cli("run", "--config", str(config), "--case", str(case_csv),
                       "--basis", str(basis_csv), "--controls", str(ctrl_csv),
                       "--out", str(out)) == EXIT_VALIDATION
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_no_room_for_the_comparison_rejected_before_any_triple(
            self, pipeline_files, tmp_path, capsys, monkeypatch):
        # kappa 180 leaves the 256-bit field room for Q<32,16> but not for
        # the e + 4f + 1 = 81-bit comparison frame: p <= 2^(180 + 81 + 1)
        case_csv, basis_csv, ctrl_csv = pipeline_files
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"fixed_point": {"kappa": 180}}))

        def mint(self, n):
            raise AssertionError("a triple was minted")

        monkeypatch.setattr(TripleDispenser, "mint", mint)
        out = tmp_path / "r.json"
        assert run_cli("run", "--config", str(config), "--case", str(case_csv),
                       "--basis", str(basis_csv), "--controls", str(ctrl_csv),
                       "--out", str(out)) == EXIT_VALIDATION
        assert "field too small" in capsys.readouterr().err
        assert not out.exists()

    def test_unencodable_tau_rejected_before_any_triple(
            self, pipeline_files, tmp_path, capsys, monkeypatch):
        # tau^2 = 90,000 at scale 2^(4f) needs more than the e + 4f + 1 = 81
        # bits of the comparison frame
        case_csv, basis_csv, ctrl_csv = pipeline_files

        def mint(self, n):
            raise AssertionError("a triple was minted")

        monkeypatch.setattr(TripleDispenser, "mint", mint)
        out, ledger = tmp_path / "r.json", tmp_path / "l.jsonl"
        assert run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                       "--controls", str(ctrl_csv), "--out", str(out), "--tau", "300",
                       "--triple-ledger", str(ledger)) == EXIT_VALIDATION
        assert "outside Q<81,64> range" in capsys.readouterr().err
        assert not out.exists() and not ledger.exists()

    def test_nonempty_ledger_rejected_before_any_triple(self, pipeline_files, tmp_path,
                                                         capsys, monkeypatch):
        case_csv, basis_csv, ctrl_csv = pipeline_files
        ledger = tmp_path / "l.jsonl"

        def run(seed, out):
            return run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                           "--controls", str(ctrl_csv), "--out", str(out), "--seed", seed,
                           "--triple-ledger", str(ledger))

        assert run("1", tmp_path / "r1.json") == 0
        first = ledger.read_bytes()
        capsys.readouterr()

        def mint(self, n):
            raise AssertionError("a triple was minted")

        monkeypatch.setattr(TripleDispenser, "mint", mint)
        assert run("2", tmp_path / "r2.json") == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error:")
        assert ledger.read_bytes() == first
        assert not (tmp_path / "r2.json").exists()

    def test_unwritable_ledger_rejected_before_any_triple(
            self, pipeline_files, tmp_path, capsys, monkeypatch):
        case_csv, basis_csv, ctrl_csv = pipeline_files

        def mint(self, n):
            raise AssertionError("a triple was minted")

        monkeypatch.setattr(TripleDispenser, "mint", mint)
        out, ledger = tmp_path / "r.json", tmp_path / "missing" / "l.jsonl"
        assert run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                       "--controls", str(ctrl_csv), "--out", str(out),
                       "--triple-ledger", str(ledger)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists() and not ledger.exists()


class TestDuplicatedMessage:
    """Any message of a run delivered twice fails it with exit 3: the copy is
    a repeated contribution to an opening, or it is left untaken when its
    run ends.  A fixed-seed sample of the messages covers every tag."""

    SAMPLE = 20

    def test_sampled_duplicates_exit_protocol(self, pipeline_files, tmp_path, capsys,
                                              monkeypatch):
        case_csv, basis_csv, ctrl_csv = pipeline_files
        out = tmp_path / "r.json"
        argv = ["run", "--case", str(case_csv), "--basis", str(basis_csv),
                "--controls", str(ctrl_csv), "--out", str(out), "--seed", "7"]
        send, tags, doubled = Runtime.send, [], None

        def recording(self, src, dst, tag, payload):
            tags.append(tag)
            if len(tags) == doubled:
                send(self, src, dst, tag, payload)
            return send(self, src, dst, tag, payload)

        monkeypatch.setattr(Runtime, "send", recording)
        assert run_cli(*argv) == 0
        families = {}
        for i, tag in enumerate(tags, 1):
            families.setdefault(re.sub(r":[a-z]\d{6}$", "", tag), []).append(i)
        rng = random.Random(7)
        sample = {rng.choice(indices) for indices in families.values()}
        sample.update(rng.sample(sorted(set(range(1, len(tags) + 1)) - sample),
                                 self.SAMPLE - len(sample)))
        capsys.readouterr()
        out.unlink()
        for index in sorted(sample):
            tags.clear()
            doubled = index
            assert run_cli(*argv) == EXIT_PROTOCOL, (index, tags[index - 1])
            err = capsys.readouterr().err
            assert err.startswith("protocol error:") and "Traceback" not in err
            assert not out.exists()


def run_module(*argv):
    """`python -m spdzgen argv...` in a child process, with this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "spdzgen", *argv], capture_output=True,
                          text=True, env=env, timeout=120)


def test_console_entry_point(tmp_path):
    out = tmp_path / "g.json"
    proc = run_module("groupgen", "--bits", "16", "--seed", "e", "--out", str(out))
    assert proc.returncode == 0
    assert out.exists()


# A basis whose one column has an entry past the float range, or whose square
# is; group documents that are not objects or lack g; controls one SNP wider
# than the 6-row basis.  Every genotype file's header is as wide as its rows.
HUGE_BASIS = "1e400\n0\n0\n0\n0\n0\n"
BIG_BASIS = "1e200\n0\n0\n0\n0\n0\n"
NO_G = json.dumps({"p": "23", "q": "11"})
WIDE_CONTROLS = "snp0,snp1,snp2,snp3,snp4,snp5,snp6\n0,1,2,0,1,0,1\n"
# One case sample of COUNT_CAP + 5 SNPs, all 0: its count of 0s is past the cap.
TALL_CASE = ",".join(["snp"] * (COUNT_CAP + 5)) + "\n" + ",".join(["0"] * (COUNT_CAP + 5)) + "\n"
# Three samples of the fixture's six SNPs and no header row.
HEADERLESS = "0,1,2,0,1,0\n2,0,1,1,0,1\n2,2,0,1,0,2\n"
# Rows of 6, 2 and 8 values under a header of 6.
RAGGED = "s0,s1,s2,s3,s4,s5\n0,1,2,0,1,0\n2,0\n2,2,0,1,0,2,1,1\n"
# The fixture's header and no sample.
HEADER_ONLY = "s0,s1,s2,s3,s4,s5\n"
# A group document whose p = 2q + 1 has 4096 bits, past the 2048-bit maximum.
BIG_GROUP = json.dumps({"p": str(2 ** 4095 + 3), "q": str(2 ** 4094 + 1), "g": "4"})


@pytest.mark.parametrize("argv,config,code", [
    (["triples", "-n", "0", "--demo-reuse"], None, EXIT_USAGE),
    (["run", "--tau", "1/0"], None, EXIT_VALIDATION),
    (["run", "--lambda-max", "1/0"], None, EXIT_VALIDATION),
    (["run"], {"tau": "1/0"}, EXIT_VALIDATION),
    (["run"], {"fixed_point": {"kappa": -60}}, EXIT_VALIDATION),
    (["run"], {"fixed_point": {"f": 16.9}}, EXIT_VALIDATION),
    (["run"], {"bits": 256.7}, EXIT_VALIDATION),
    (["run"], {"parties": 3.9}, EXIT_VALIDATION),
    (["run"], {"fixed_point": {"kappa": False}}, EXIT_VALIDATION),
    (["run"], {"group_path": 5}, EXIT_VALIDATION),
    (["synth", "--samples", "-2", "--snps", "3"], None, EXIT_USAGE),
    (["synth", "--samples", "2", "--snps", "0"], None, EXIT_USAGE),
    (["triples", "-n", "1", "--group", ("g.json", "{}")], None, EXIT_VALIDATION),
    (["triples", "-n", "1", "--group", ("g.json", "[]")], None, EXIT_VALIDATION),
    (["triples", "-n", "1", "--group", ("g.json", '"x"')], None, EXIT_VALIDATION),
    (["triples", "-n", "1", "--group", ("g.json", NO_G)], None, EXIT_VALIDATION),
    (["run"], {"group_path": ("g.json", "{}")}, EXIT_VALIDATION),
    (["run"], {"group_path": ("g.json", NO_G)}, EXIT_VALIDATION),
    (["run", "--basis", ("b.csv", HUGE_BASIS)], None, EXIT_VALIDATION),
    (["run", "--basis", ("b.csv", BIG_BASIS)], None, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--basis", ("b.csv", HUGE_BASIS)], None, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--basis", ("b.csv", BIG_BASIS)], None, EXIT_VALIDATION),
    (["run", "--lambda-max", "1e400"], None, EXIT_VALIDATION),
    (["run"], {"lambda_max": "1e400"}, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--lambda-max", "1e400"], None, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--tau", "1e400"], None, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--controls", ("c.csv", WIDE_CONTROLS)], None,
     EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--tau", "300"], None, EXIT_VALIDATION),
    # e = 4 caps ||z||^2 below 8; the third control's is 13
    (["run", "--plaintext-oracle"], {"fixed_point": {"k": 20}}, EXIT_VALIDATION),
    # the field is always the group's own p, so the key is unknown
    (["run"], {"fixed_point": {"p": DEFAULT_GROUP_256.p}}, EXIT_VALIDATION),
    (["run", "--plaintext-oracle"], {"fixed_point": {"p": DEFAULT_GROUP_256.p}},
     EXIT_VALIDATION),
    # positive, but `echo` would report 0.0
    (["run", "--tau", "1e-400"], None, EXIT_VALIDATION),
    (["run", "--lambda-max", "1e-400"], None, EXIT_VALIDATION),
    (["run"], {"tau": "1e-400"}, EXIT_VALIDATION),
    (["run"], {"lambda_max": "1e-400"}, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--tau", "1e-400"], None, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--lambda-max", "1e-400"], None, EXIT_VALIDATION),
    (["run", "--plaintext-oracle"], {"tau": "1e-400"}, EXIT_VALIDATION),
    (["run", "--plaintext-oracle"], {"lambda_max": "1e-400"}, EXIT_VALIDATION),
    (["run", "--case", ("case.csv", TALL_CASE)], None, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--case", ("case.csv", TALL_CASE)], None, EXIT_VALIDATION),
    (["run", "--case", ("case.csv", HEADERLESS)], None, EXIT_VALIDATION),
    (["run", "--controls", ("c.csv", HEADERLESS)], None, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--case", ("case.csv", HEADERLESS)], None, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--controls", ("c.csv", HEADERLESS)], None,
     EXIT_VALIDATION),
    (["run", "--case", ("case.csv", RAGGED)], None, EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--case", ("case.csv", RAGGED)], None, EXIT_VALIDATION),
    # a basis of dimension 0 under a controls file of a header alone
    (["run", "--basis", ("b.csv", ""), "--controls", ("c.csv", HEADER_ONLY)], None,
     EXIT_VALIDATION),
    (["run", "--plaintext-oracle", "--basis", ("b.csv", ""), "--controls",
      ("c.csv", HEADER_ONLY)], None, EXIT_VALIDATION),
    # groups past the 2048-bit maximum, refused before any prime search or test
    (["run"], {"bits": 1_000_000}, EXIT_VALIDATION),
    (["run"], {"group_path": ("g.json", BIG_GROUP)}, EXIT_VALIDATION),
    (["triples", "--bits", "4096"], None, EXIT_VALIDATION),
    (["groupgen", "--bits", "4096"], None, EXIT_VALIDATION),
], ids=["demo-reuse-without-triples", "tau-zero-denominator", "lambda-max-zero-denominator",
        "config-zero-denominator", "negative-kappa", "fractional-f", "fractional-bits",
        "fractional-parties", "boolean-kappa", "group-path-not-string",
        "synth-negative-samples", "synth-zero-snps",
        "triples-group-empty-object", "triples-group-array", "triples-group-string",
        "triples-group-without-g", "run-group-empty-object", "run-group-without-g",
        "basis-past-float", "basis-square-past-float", "oracle-basis-past-float",
        "oracle-basis-square-past-float", "lambda-max-past-float",
        "config-lambda-max-past-float", "oracle-lambda-max-past-float", "oracle-tau-past-float",
        "oracle-wide-controls", "oracle-unencodable-tau", "oracle-norm-past-cap",
        "fixed-point-p", "oracle-fixed-point-p", "tau-below-float", "lambda-max-below-float",
        "config-tau-below-float", "config-lambda-max-below-float", "oracle-tau-below-float",
        "oracle-lambda-max-below-float", "oracle-config-tau-below-float",
        "oracle-config-lambda-max-below-float", "case-count-past-cap",
        "oracle-case-count-past-cap", "headerless-case", "headerless-controls",
        "oracle-headerless-case", "oracle-headerless-controls", "ragged-case",
        "oracle-ragged-case", "empty-basis", "oracle-empty-basis", "run-bits-past-max",
        "run-group-past-max", "triples-bits-past-max", "groupgen-bits-past-max"])
def test_bad_arguments_exit_typed_without_traceback(pipeline_files, tmp_path, argv, config,
                                                    code):
    def written(arg):
        # a (name, text) pair stands for the path of a file holding the text
        if not isinstance(arg, tuple):
            return arg
        (tmp_path / arg[0]).write_text(arg[1])
        return str(tmp_path / arg[0])

    argv = [written(arg) for arg in argv]
    if argv[0] in ("synth", "groupgen"):
        argv = argv + ["--out", str(tmp_path / "r.json")]
    if argv[0] == "run":
        # an option given in argv comes after these defaults, so it wins
        case_csv, basis_csv, ctrl_csv = pipeline_files
        defaults = ["--case", str(case_csv), "--basis", str(basis_csv),
                    "--controls", str(ctrl_csv), "--out", str(tmp_path / "r.json"),
                    "--triple-ledger", str(tmp_path / "ledger.jsonl")]
        argv = argv[:1] + defaults + argv[1:]
    if config is not None:
        config = {key: written(val) for key, val in config.items()}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    proc = run_module(*argv)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "r.json").exists()
    assert not (tmp_path / "ledger.jsonl").exists()


class TestPipelineGolden:
    # sha256 of the transcript and the triple ledger of one fixed `run`: three
    # controls of dim 4 against a rank-2 basis, seed 5, single-randomness
    # dispensation.  The transcript lists 105 messages and the ledger 35
    # triples; the report accepts ctrl_000 with lambda 31/255.  CHANGES.md
    # records what each re-pin moved.  The control loop, the Beaver products
    # and the dispensation must leave both byte-identical.
    TRANSCRIPT_SHA256 = "a28b34370d60dc4f14b137d19c60d1a57964f3c6a5d60698a68892ae1374d18b"
    LEDGER_SHA256 = "5fdd569fb0289d94a47be80e273b72c3285301666682d549dad473993e67093a"
    # The same run with two-randomness dispensation (`build_parties` patched
    # to blinding="two", as tests/test_gwas.py's `screened_run` does, since
    # `run` has no mode option).  Its transcript lists 120 messages; the
    # ledger, the report and the triple count are single mode's.
    TWO_MODE_TRANSCRIPT_SHA256 = "a603818a569e8b0de45325d7176adeee04a5c6d766bc356ee04a4b3d3c1ee1d1"
    TWO_MODE_LEDGER_SHA256 = LEDGER_SHA256

    def run_golden(self, tmp_path):
        """The fixed `run`; returns its transcript's and ledger's sha256."""
        case_csv, basis_csv, ctrl_csv = (tmp_path / n for n in ("case.csv", "basis.csv", "ctrl.csv"))
        GenotypeMatrix(entries=((0, 1, 2, 1), (1, 1, 0, 2), (2, 1, 1, 0))).to_csv(case_csv)
        basis_csv.write_text("1,0\n0,1\n0,0\n0,0\n")
        GenotypeMatrix(entries=((1, 2, 0, 0), (0, 0, 2, 1), (1, 0, 1, 0))).to_csv(ctrl_csv)
        transcript, ledger, out = tmp_path / "t.jsonl", tmp_path / "l.jsonl", tmp_path / "r.json"
        code = run_cli("run", "--case", str(case_csv), "--basis", str(basis_csv),
                       "--controls", str(ctrl_csv), "--out", str(out), "--seed", "5",
                       "--transcript-out", str(transcript), "--triple-ledger", str(ledger))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["accepted"] == ["ctrl_000"]
        assert report["lambda"] == {"num": 31, "den": 255, "value": 31 / 255}
        assert report["triple_count"] == 35
        ids = [json.loads(line)["triple_id"] for line in ledger.read_text().splitlines()]
        assert len(ids) == len(set(ids)) == report["triple_count"]
        return (hashlib.sha256(transcript.read_bytes()).hexdigest(),
                hashlib.sha256(ledger.read_bytes()).hexdigest())

    @both_backends
    def test_transcript_and_ledger(self, modexp_backend, tmp_path):
        assert self.run_golden(tmp_path) == (self.TRANSCRIPT_SHA256, self.LEDGER_SHA256)

    @both_backends
    def test_two_mode_transcript_and_ledger(self, modexp_backend, tmp_path, monkeypatch):
        monkeypatch.setattr(gwas, "build_parties",
                            functools.partial(gwas.build_parties, blinding="two"))
        assert self.run_golden(tmp_path) == (self.TWO_MODE_TRANSCRIPT_SHA256,
                                             self.TWO_MODE_LEDGER_SHA256)
