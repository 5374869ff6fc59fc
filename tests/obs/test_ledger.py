"""Run ledger: manifests, content hashing, deltas, `repro compare`."""

import copy
import json

import pytest

from repro.cli import main
from repro.obs import ledger, status
from repro.obs.ledger import (
    compare_manifests,
    content_hash,
    fingerprint_behaviours,
    load_manifest,
    phase_seconds,
    ratio_delta,
)


@pytest.fixture(autouse=True)
def _reset_ledger():
    ledger.reset()
    status.reset()
    yield
    ledger.reset()
    status.reset()


class TestRatioDelta:
    def test_zero_endpoints(self):
        assert ratio_delta(0.0, 0.0) == 0.0
        assert ratio_delta(5.0, 0.0) == -1.0
        assert ratio_delta(0.0, 5.0, True) == 1.0
        assert ratio_delta(0.0, 5.0, False) == -1.0

    def test_higher_is_better_math(self):
        assert ratio_delta(100.0, 150.0, True) == pytest.approx(0.5)
        assert ratio_delta(100.0, 50.0, True) == pytest.approx(-0.5)

    def test_lower_is_better_is_ratio_symmetric(self):
        # A 1.5x slowdown in seconds reads the same as a 1.5x
        # throughput loss: -(1/3), measured against the new value.
        assert ratio_delta(1.0, 1.5, False) == pytest.approx(-1 / 3)
        assert ratio_delta(1.5, 1.0, False) == pytest.approx(0.5)


class TestFingerprint:
    def test_order_independent_and_stable(self):
        a = fingerprint_behaviours(["b1", "b2", "b3"])
        b = fingerprint_behaviours(["b3", "b1", "b2"])
        assert a == b
        assert len(a) == 16

    def test_sensitive_to_content(self):
        assert fingerprint_behaviours(["x"]) != fingerprint_behaviours(
            ["y"]
        )


class TestContentHash:
    def test_stable_for_same_input(self, tmp_path):
        src = tmp_path / "p.c"
        src.write_text("int g;\n")
        pipeline = ("ConstProp", "CSE")
        assert content_hash(str(src), pipeline) == content_hash(
            str(src), pipeline
        )

    def test_sensitive_to_content_pipeline_and_gates(self, tmp_path):
        src = tmp_path / "p.c"
        src.write_text("int g;\n")
        base = content_hash(str(src), ("A",), ("g1",))
        src.write_text("int h;\n")
        assert content_hash(str(src), ("A",), ("g1",)) != base
        src.write_text("int g;\n")
        assert content_hash(str(src), ("B",), ("g1",)) != base
        assert content_hash(str(src), ("A",), ("g2",)) != base

    def test_missing_file_hashes_the_path(self, tmp_path):
        # A vanished input must not crash manifest writing.
        h = content_hash(str(tmp_path / "gone.c"))
        assert len(h) == 64


class TestPhaseSeconds:
    def test_extracts_span_totals(self):
        snapshot = {
            "histograms": {
                "span.explore.seconds": {
                    "count": 2, "min": 0.1, "max": 0.4, "total": 0.5,
                    "values": [0.1, 0.4],
                },
                "span.compile.pass.seconds": {
                    "count": 0, "min": None, "max": None, "total": 0.0,
                    "values": [],
                },
                "wire.bytes": {"count": 3, "total": 99.0,
                               "min": 1.0, "max": 50.0, "values": []},
            }
        }
        assert phase_seconds(snapshot) == {"explore": 0.5}


QUICKSTART = """
int g = 0;
void main() {
  int i = 0;
  while (i < 4) { g = g + i; i = i + 1; }
  print(g);
}
"""


@pytest.fixture
def manifest(tmp_path):
    """A real manifest from a real CLI run."""
    src = tmp_path / "p.c"
    src.write_text(QUICKSTART)
    out = tmp_path / "run.json"
    assert main(["run", str(src), "--ledger", str(out)]) == 0
    return str(out)


class TestManifestWriting:
    def test_manifest_facts(self, manifest, capsys):
        doc = load_manifest(manifest)
        assert doc["type"] == "run-manifest"
        assert doc["version"] == ledger.VERSION
        assert doc["command"] == "run"
        assert doc["exit_status"] == 0
        assert doc["states"] > 0
        assert doc["config"]["por"] in (True, False)
        assert doc["config"]["jobs"] == 1
        assert len(doc["content_hash"]) == 64
        assert doc["wall_seconds"] > 0
        assert "explore" in doc["phases"]
        assert doc["states_per_second"] > 0
        assert doc["seeds"]["python"]

    def test_load_manifest_rejects_other_json(self, tmp_path):
        other = tmp_path / "not.json"
        other.write_text(json.dumps({"type": "heartbeat"}))
        with pytest.raises(ValueError):
            load_manifest(str(other))

    def test_drf_manifest_records_verdict(self, tmp_path, capsys):
        src = tmp_path / "p.c"
        src.write_text(QUICKSTART)
        out = tmp_path / "drf.json"
        assert main(
            ["drf", str(src), "--ledger", str(out)]
        ) == 0
        assert load_manifest(str(out))["verdict"] == "drf"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_drf_manifest_records_memory(self, tmp_path, capsys, jobs):
        """The record keeps peak RSS and the explored keys' bytes, and
        ``inspect`` shows both."""
        src = tmp_path / "p.c"
        src.write_text(QUICKSTART)
        out = tmp_path / "drf.json"
        assert main(["drf", str(src), "--jobs", jobs, "--ledger",
                     str(out)]) == 0
        doc = load_manifest(str(out))
        assert doc["peak_rss_mib"] > 0
        key_bytes = doc["metrics"]["gauges"]["explore.key_bytes"]
        assert key_bytes >= doc["states"] * 24  # one int per state
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 0
        text = capsys.readouterr().out
        assert "peak RSS {:.1f} MiB".format(doc["peak_rss_mib"]) in text
        assert "explore.key_bytes" in text and str(key_bytes) in text

    def test_manifest_stores_histogram_summaries(self, manifest, capsys):
        """Each histogram is stored as its summary, not its raw
        reservoir, and the fact sheet renders the summaries."""
        doc = load_manifest(manifest)
        hists = doc["metrics"]["histograms"]
        assert hists
        for summ in hists.values():
            assert "values" not in summ
            assert set(summ) == {
                "count", "total", "min", "max", "mean", "p50", "p95"
            }
        assert doc["phases"]["explore"] == round(
            hists["span.explore.seconds"]["total"], 6
        )
        assert main(["inspect", manifest]) == 0
        text = capsys.readouterr().out
        assert "final metrics:" in text
        assert "Histogram" in text and "P95" in text
        assert "span.explore.seconds" in text


class TestCompareManifests:
    def test_self_compare_has_no_regressions(self, manifest):
        doc = load_manifest(manifest)
        report, regressions = compare_manifests(doc, doc)
        assert regressions == []
        assert "content hash: identical" in report
        assert "no regression" in report

    def test_throughput_cliff_gates(self, manifest):
        a = load_manifest(manifest)
        b = copy.deepcopy(a)
        b["states_per_second"] = a["states_per_second"] / 2.0
        report, regressions = compare_manifests(a, b, tolerance=0.4)
        assert ("states_per_second", pytest.approx(-0.5)) in [
            (m, d) for m, d in regressions
        ]
        assert "regressions beyond tolerance" in report

    def test_cliff_within_tolerance_passes(self, manifest):
        a = load_manifest(manifest)
        b = copy.deepcopy(a)
        b["states_per_second"] = a["states_per_second"] * 0.8
        _report, regressions = compare_manifests(a, b, tolerance=0.4)
        assert regressions == []

    def test_fingerprint_mismatch_gates_only_on_same_input(self):
        a = {
            "type": "run-manifest", "content_hash": "abc",
            "fingerprint": "f1",
        }
        b = dict(a, fingerprint="f2")
        _report, regressions = compare_manifests(a, b)
        assert ("fingerprint", -1.0) in regressions
        # Different inputs are allowed different behaviours.
        c = dict(b, content_hash="xyz")
        _report, regressions = compare_manifests(a, c)
        assert regressions == []

    def test_config_diff_renders(self, manifest):
        a = load_manifest(manifest)
        b = copy.deepcopy(a)
        b["config"]["por"] = not a["config"]["por"]
        report, _ = compare_manifests(a, b)
        assert "config differences:" in report
        assert "por" in report


class TestCliCompare:
    def test_self_compare_exits_zero(self, manifest, capsys):
        assert main(["compare", manifest, manifest]) == 0
        assert "no regression" in capsys.readouterr().out

    def test_regression_without_flag_still_zero(
        self, manifest, tmp_path, capsys
    ):
        doctored = self._doctor(manifest, tmp_path)
        assert main(["compare", manifest, doctored]) == 0

    def test_fail_on_regression_exits_one(
        self, manifest, tmp_path, capsys
    ):
        doctored = self._doctor(manifest, tmp_path)
        assert main(
            ["compare", manifest, doctored, "--fail-on-regression"]
        ) == 1
        assert "states_per_second" in capsys.readouterr().out

    def test_unreadable_manifest_is_usage_error(
        self, manifest, tmp_path, capsys
    ):
        assert main(
            ["compare", manifest, str(tmp_path / "missing.json")]
        ) == 2
        assert "cannot load run manifest" in capsys.readouterr().err

    @staticmethod
    def _doctor(manifest, tmp_path):
        doc = load_manifest(manifest)
        doc["states_per_second"] = doc["states_per_second"] / 2.0
        out = tmp_path / "doctored.json"
        out.write_text(json.dumps(doc))
        return str(out)
