"""On-disk campaign state: dedup, findings schema, checkpoint safety."""

import json

import pytest

from repro.common.serialize import wrap_document
from repro.fuzz.corpus import (
    CHECKPOINT_KIND,
    FINDINGS_KIND,
    FINDINGS_VERSION,
    Corpus,
    CorpusError,
)
from repro.fuzz.generators import GENERATOR_VERSION, generate


@pytest.fixture
def corpus(tmp_path):
    return Corpus(tmp_path / "corpus")


class TestPrograms:
    def test_add_is_deduped_by_content_hash(self, corpus):
        inp = generate("minic-seq", 42)
        path, added = corpus.add_program(inp)
        assert added is True
        with open(path) as handle:
            assert handle.read() == inp.source
        again, added = corpus.add_program(inp)
        assert added is False
        assert again == path
        assert corpus.program_count() == 1

    def test_distinct_programs_coexist(self, corpus):
        _, a = corpus.add_program(generate("minic-seq", 1))
        _, b = corpus.add_program(generate("minic-seq", 2))
        assert a and b
        assert corpus.program_count() == 2

    def test_filenames_use_hash_prefix_and_extension(self, corpus):
        inp = generate("cimp-pair", 0)
        path, _ = corpus.add_program(inp)
        assert path.endswith(inp.content_hash[:16] + ".cimp")


class TestFindingsLog:
    def test_fresh_log_shape(self, corpus):
        doc = corpus.load_findings()
        assert doc["type"] == FINDINGS_KIND
        assert doc["version"] == FINDINGS_VERSION
        assert doc["findings"] == []

    def test_append_round_trips(self, corpus):
        campaign = {"seed": 1, "count": 2}
        assert corpus.append_finding(
            {"kind": "race", "expected": True}, campaign=campaign
        ) == 1
        assert corpus.append_finding({"kind": "crash"}) == 2
        doc = corpus.load_findings()
        assert doc["campaign"] == campaign
        assert [f["kind"] for f in doc["findings"]] == \
            ["race", "crash"]

    def test_header_written_even_when_clean(self, corpus):
        corpus.write_findings_header({"seed": 9})
        doc = json.loads(open(corpus.findings_path).read())
        assert doc["campaign"] == {"seed": 9}
        assert doc["findings"] == []

    def test_foreign_type_rejected(self, corpus, tmp_path):
        corpus.ensure_dirs()
        with open(corpus.findings_path, "w") as handle:
            json.dump({"type": "run-manifest"}, handle)
        with pytest.raises(CorpusError, match="not a findings log"):
            corpus.load_findings()

    def test_future_version_rejected(self, corpus):
        corpus.ensure_dirs()
        with open(corpus.findings_path, "w") as handle:
            json.dump(
                {"type": FINDINGS_KIND, "version": 999}, handle
            )
        with pytest.raises(CorpusError, match="version"):
            corpus.load_findings()

    def test_torn_json_rejected(self, corpus):
        corpus.ensure_dirs()
        with open(corpus.findings_path, "w") as handle:
            handle.write("{not json")
        with pytest.raises(CorpusError, match="not valid JSON"):
            corpus.load_findings()


class TestCheckpoint:
    STATE = {
        "generator_version": GENERATOR_VERSION,
        "seed": 5,
        "count": 10,
        "kinds": ["minic-seq"],
        "done": {"0": "abc"},
    }

    def test_round_trip(self, corpus):
        corpus.save_checkpoint(dict(self.STATE))
        assert corpus.load_checkpoint() == self.STATE

    def test_missing_is_none(self, corpus):
        assert corpus.load_checkpoint() is None

    def test_envelope_kind_enforced(self, corpus):
        corpus.ensure_dirs()
        with open(corpus.checkpoint_path, "w") as handle:
            json.dump(wrap_document("witness", dict(self.STATE)),
                      handle)
        with pytest.raises(CorpusError):
            corpus.load_checkpoint()

    def test_generator_version_mismatch_rejected(self, corpus):
        state = dict(self.STATE, generator_version=GENERATOR_VERSION + 1)
        corpus.save_checkpoint(state)
        with pytest.raises(CorpusError, match="generator version"):
            corpus.load_checkpoint()

    def test_torn_json_rejected(self, corpus):
        corpus.ensure_dirs()
        with open(corpus.checkpoint_path, "w") as handle:
            handle.write('{"type": "fuzz-checkpo')
        with pytest.raises(CorpusError, match="not valid JSON"):
            corpus.load_checkpoint()

    def test_envelope_type_on_disk(self, corpus):
        corpus.save_checkpoint(dict(self.STATE))
        doc = json.loads(open(corpus.checkpoint_path).read())
        assert doc["type"] == CHECKPOINT_KIND


class TestWitnesses:
    def test_save_witness_is_json(self, corpus):
        path = corpus.save_witness("ff" * 32, {"type": "witness"})
        assert json.loads(open(path).read()) == {"type": "witness"}
        assert path == corpus.witness_path("ff" * 32)
