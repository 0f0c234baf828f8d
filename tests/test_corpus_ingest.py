import pytest

from narrative_seq.corpus_ingest import (
    ClassDistribution,
    DamageLabel,
    OccurrenceRecord,
    class_distribution,
    filter_completed,
    load_reports,
    map_damage_label,
)
from narrative_seq.errors import DataError
from narrative_seq.evaluation import majority_baseline


def _entry(rid, narrative="the aircraft landed", level="Substantial", complete=True):
    return {
        "report_id": rid,
        "narrative": narrative,
        "damage_level": level,
        "investigation_complete": complete,
    }


def _record(rid, narrative="x", level=DamageLabel.SUBSTANTIAL, complete=True):
    return OccurrenceRecord(rid, narrative, level, complete)


class TestMapDamageLabel:
    def test_identity_names(self):
        assert map_damage_label("Substantial") is DamageLabel.SUBSTANTIAL
        assert map_damage_label("Destroyed") is DamageLabel.DESTROYED

    def test_synonyms_case_insensitive(self):
        assert map_damage_label("dstr") is DamageLabel.DESTROYED
        assert map_damage_label("SUBS") is DamageLabel.SUBSTANTIAL
        assert map_damage_label("minr") is DamageLabel.MINOR
        assert map_damage_label("None Reported") is DamageLabel.NO_DAMAGE

    def test_surrounding_whitespace_ignored(self):
        assert map_damage_label("  minor \n") is DamageLabel.MINOR

    def test_no_match(self):
        assert map_damage_label("catastrophic") is None


class TestLoadReports:
    def test_three_well_formed(self, corpus_json):
        path = corpus_json([_entry("a"), _entry("b"), _entry("c")])
        result = load_reports(path, "json")
        assert [r.report_id for r in result.records] == ["a", "b", "c"]
        assert result.warnings == []

    def test_empty_array(self, corpus_json):
        result = load_reports(corpus_json([]), "json")
        assert result.records == [] and result.warnings == []

    def test_unknown_damage_level_skipped_with_warning(self, corpus_json):
        path = corpus_json([_entry("a"), _entry("b"), _entry("c", level="UNKNOWN")])
        result = load_reports(path, "json")
        assert len(result.records) == 2
        assert len(result.warnings) == 1
        assert "UNKNOWN" in result.warnings[0]

    def test_duplicate_report_id_fatal(self, corpus_json):
        path = corpus_json([_entry("dup"), _entry("dup")])
        with pytest.raises(DataError, match="dup"):
            load_reports(path, "json")

    def test_unreadable_file_fatal(self, tmp_path):
        with pytest.raises(DataError):
            load_reports(tmp_path / "missing.json", "json")

    def test_invalid_json_fatal(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataError):
            load_reports(path, "json")

    def test_unknown_format_rejected(self, corpus_json):
        with pytest.raises(DataError):
            load_reports(corpus_json([]), "xml")

    def test_missing_fields_warn(self, corpus_json):
        path = corpus_json([{"report_id": "a"}, _entry("b")])
        result = load_reports(path, "json")
        assert [r.report_id for r in result.records] == ["b"]
        assert len(result.warnings) == 1

    def test_two_loads_identical(self, corpus_json):
        path = corpus_json([_entry("a"), _entry("b", level="dstr")])
        first = load_reports(path, "json")
        second = load_reports(path, "json")
        assert first.records == second.records


class TestLoadReportsCsv:
    HEADER = "report_id,narrative,damage_level,investigation_complete"

    def _write(self, tmp_path, body):
        path = tmp_path / "corpus.csv"
        path.write_text(self.HEADER + "\n" + body, encoding="utf-8")
        return path

    def test_basic_rows(self, tmp_path):
        path = self._write(
            tmp_path,
            'r1,"engine failed, on approach",Substantial,true\n'
            "r2,gear collapse,minor,false\n",
        )
        result = load_reports(path, "csv")
        assert len(result.records) == 2
        assert result.records[0].narrative == "engine failed, on approach"
        assert result.records[1].damage_level is DamageLabel.MINOR
        assert result.records[1].investigation_complete is False

    def test_quoted_newline_in_narrative(self, tmp_path):
        path = self._write(tmp_path, 'r1,"line one\nline two",Destroyed,true\n')
        result = load_reports(path, "csv")
        assert result.records[0].narrative == "line one\nline two"

    def test_wrong_header_fatal(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,text\n1,x\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            load_reports(path, "csv")

    def test_bad_flag_and_short_row_warn(self, tmp_path):
        path = self._write(
            tmp_path,
            "r1,story,Substantial,maybe\n"
            "r2,story\n"
            "r3,story,Substantial,true\n",
        )
        result = load_reports(path, "csv")
        assert [r.report_id for r in result.records] == ["r3"]
        assert len(result.warnings) == 2


class TestFilterCompleted:
    def test_identity_when_all_complete(self):
        records = [_record("a"), _record("b")]
        assert filter_completed(records) == records

    def test_drops_incomplete(self):
        records = [
            _record("a"),
            _record("b", complete=False),
            _record("c"),
            _record("d", complete=False),
            _record("e"),
        ]
        assert [r.report_id for r in filter_completed(records)] == ["a", "c", "e"]

    def test_drops_blank_narratives(self):
        records = [_record("a", narrative="  \n "), _record("b", narrative="ok")]
        assert [r.report_id for r in filter_completed(records)] == ["b"]

    def test_idempotent(self):
        records = [_record("a"), _record("b", complete=False), _record("c", narrative="")]
        once = filter_completed(records)
        assert filter_completed(once) == once


class TestClassDistribution:
    def test_empty(self):
        dist = class_distribution([])
        assert dist.total == 0
        assert all(v == 0 for v in dist.counts.values())

    def test_one_per_class(self):
        records = [_record(str(label), level=label) for label in DamageLabel]
        dist = class_distribution(records)
        assert dist.total == 4
        assert all(v == 1 for v in dist.counts.values())

    def test_total_always_matches_input_length(self):
        records = [_record(str(i), level=DamageLabel(i % 4)) for i in range(37)]
        dist = class_distribution(records)
        assert dist.total == len(records) == sum(dist.counts.values())

    def test_reference_distribution_majority_share(self):
        # Independent arithmetic on the published corpus counts.
        counts = {
            DamageLabel.DESTROYED: 1409,
            DamageLabel.SUBSTANTIAL: 15163,
            DamageLabel.MINOR: 195,
            DamageLabel.NO_DAMAGE: 152,
        }
        total = sum(counts.values())
        assert total == 16919
        dist = ClassDistribution(counts=counts, total=total)
        assert majority_baseline(dist) == pytest.approx(15163 / 16919)
        assert majority_baseline(dist) == pytest.approx(0.8962, abs=1e-4)
