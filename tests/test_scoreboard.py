"""The claims table, its verdict rule, the committed records and the unit pin.

``EXPERIMENTS.unit.json`` and ``EXPERIMENTS.small.json`` at the repo root
are written by ``repro paper --scale S --out .``.  The unit record pins
every simulated claim exactly: a change that moves P@10, active ISNs,
latency or power at unit scale fails here naming the claims that moved.
After a deliberate change to simulated behaviour, re-run both commands
and commit the records (the small one re-renders EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro import cli
from repro.cli import FIGURES
from repro.experiments import scoreboard
from repro.experiments.scoreboard import CLAIMS, TOLERANCE, Claim, judge, verdict

ROOT = Path(__file__).resolve().parent.parent
#: ``cli.FIGURES`` modules whose report printed a ``paper=`` line before the table.
PRINTED_AT_PARENT = {
    "headline", "fig02", "fig04", "fig07", "fig08", "fig10", "fig11", "fig13",
    "fig14", "fig15",
}


def committed(scale: str) -> dict:
    return json.loads((ROOT / f"EXPERIMENTS.{scale}.json").read_text())


class TestVerdictRule:
    def test_exactly_at_the_tolerance_is_a_pass(self):
        assert TOLERANCE == 0.25
        assert verdict(2.0, 1.5) == "✔" and verdict(2.0, 2.5) == "✔"
        assert verdict(2.0, 1.4999) == "◐" and verdict(2.0, 2.5001) == "◐"
        assert verdict(-2.0, -1.5) == "✔" and verdict(-2.0, -1.0) == "◐"

    def test_sign_flip_fails(self):
        assert verdict(0.43, -0.448) == "✘"  # Fig. 15 at Scale.small
        assert verdict(0.43, 0.0) == "✘"

    def test_paper_value_zero(self):
        assert verdict(0.0, 0.0) == "✔"
        assert verdict(0.0, 0.1) == "✘"
        claim = Claim("x.zero", "zero", 0.0, lambda r: r)
        assert judge(claim, 0.1)["ratio"] is None

    def test_ordering(self):
        assert verdict(None, True) == "✔" and verdict(None, False) == "✘"
        row = judge(Claim("x.order", "a < b", None, lambda r: r > 1), 2)
        assert row["measured"] is True and row["ratio"] is None

    def test_of_16_isns_claim_on_another_shard_count_is_recorded_not_judged(self):
        class Result:
            n_shards = 8

        claim = Claim("x.isns", "active ISNs", 6.81, lambda r: 5.0, of_16_isns=True)
        row = judge(claim, Result)
        assert (row["measured"], row["ratio"], row["verdict"]) == (5.0, None, "n/a")
        Result.n_shards = 16
        assert judge(claim, Result)["verdict"] == "◐"


class TestTable:
    def test_ids_unique_and_on_a_figure(self):
        ids = [claim.id for claim in CLAIMS]
        assert len(set(ids)) == len(ids)
        assert {claim.figure for claim in CLAIMS} <= set(FIGURES)

    def test_every_figure_that_printed_a_comparison_has_a_claim(self):
        assert PRINTED_AT_PARENT <= {claim.figure for claim in CLAIMS}

    def test_clocks(self):
        assert {claim.clock for claim in CLAIMS} == {"sim", "wall"}
        beyond = [claim for claim in CLAIMS if claim.figure == "beyond"]
        assert len(beyond) == 9
        assert all(c.paper is None and c.clock == "sim" for c in beyond)

    def test_reports_print_their_lines_from_the_table(self, unit_testbed):
        for figure in sorted(PRINTED_AT_PARENT):
            module = FIGURES[figure]
            report = module.format_report(module.run(unit_testbed))
            printed = [c for c in CLAIMS if c.figure == figure and c.block is not None
                       and c.paper is not None]
            assert report.count("paper=") == len(printed)
            for claim in printed:
                assert f"  {claim.label:<44} paper={claim.paper:<10.4g} measured=" in report

    def test_16_isn_claims_read_na_on_8_shards(self, unit_testbed):
        report = FIGURES["fig13"].format_report(FIGURES["fig13"].run(unit_testbed))
        assert report.startswith("Fig. 13 — average selected ISNs per query (of 8)")
        assert report.count("n/a: paper is of 16 ISNs, testbed has 8") == 3


class TestCommittedRecords:
    @pytest.mark.parametrize("scale", ["unit", "small"])
    def test_record_covers_the_table(self, scale):
        record = committed(scale)
        assert record["scale"] == scale and record["seed"] == record["config"]["seed"]
        assert [c["id"] for c in record["claims"]] == [claim.id for claim in CLAIMS]
        for row, claim in zip(record["claims"], CLAIMS):
            assert (row["label"], row["paper"], row["clock"], row["deviation"]) == (
                claim.label, claim.paper, claim.clock, claim.deviation,
            )
            if row["verdict"] != "n/a":
                assert row["verdict"] == verdict(row["paper"], row["measured"])

    def test_wall_claims_present_and_positive(self):
        for scale in ("unit", "small"):
            wall = [c for c in committed(scale)["claims"] if c["clock"] == "wall"]
            assert wall and all(c["measured"] > 0 for c in wall)

    def test_small_is_judged_everywhere_unit_nowhere_in_16_isn_units(self):
        of_16 = {claim.id for claim in CLAIMS if claim.of_16_isns}
        assert all(c["verdict"] != "n/a" for c in committed("small")["claims"])
        assert {c["id"] for c in committed("unit")["claims"] if c["verdict"] == "n/a"} == of_16

    def test_every_miss_names_a_deviation_that_exists(self):
        doc = (ROOT / "EXPERIMENTS.md").read_text()
        numbered = {int(n) for n in re.findall(r"^(\d+)\. \*\*", doc, flags=re.MULTILINE)}
        misses = [c for c in committed("small")["claims"] if c["verdict"] in ("◐", "✘")]
        assert misses
        for row in misses:
            assert row["deviation"] in numbered, row["id"]

    def test_experiments_md_is_the_rendered_small_record(self):
        doc = (ROOT / "EXPERIMENTS.md").read_text()
        for marker in (scoreboard.BEGIN, scoreboard.END,
                       scoreboard.BEYOND_BEGIN, scoreboard.BEYOND_END):
            assert doc.count(marker) == 1
        assert doc == scoreboard.rerender(doc, committed("small"))
        paper = doc.partition(scoreboard.BEGIN)[2].partition(scoreboard.END)[0]
        beyond = doc.partition(scoreboard.BEYOND_BEGIN)[2].partition(scoreboard.BEYOND_END)[0]
        assert "`beyond." not in paper and beyond.count("`beyond.") == 9


@pytest.fixture(scope="module")
def written(unit_testbed, tmp_path_factory) -> Path:
    """``repro paper --scale unit --out DIR`` over the session testbed, once."""
    out = tmp_path_factory.mktemp("scoreboard")
    (out / "EXPERIMENTS.md").write_text(
        f"intro\n{scoreboard.BEGIN}stale\n{scoreboard.END}prose\n"
        f"{scoreboard.BEYOND_BEGIN}stale\n{scoreboard.BEYOND_END}notes\n"
    )
    (out / "EXPERIMENTS.small.json").write_text(
        (ROOT / "EXPERIMENTS.small.json").read_text()
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli.Testbed, "build", lambda scale: unit_testbed)
        assert cli.main(["paper", "--scale", "unit", "--out", str(out)]) == 0
    return out


def test_unit_pin(written, bank_ok):
    """Every simulated claim of the committed unit record, exactly."""
    if not bank_ok:
        pytest.skip("bank differs from the capture; see test_bank_matches_capture")
    measured = json.loads((written / "EXPERIMENTS.unit.json").read_text())
    want = committed("unit")
    assert measured["config"] == want["config"]
    moved = [
        f"{old['id']}: {old['measured']!r} ({old['verdict']}) -> "
        f"{new['measured']!r} ({new['verdict']})"
        for old, new in zip(want["claims"], measured["claims"])
        if old["clock"] == "sim"
        and (old["measured"], old["verdict"]) != (new["measured"], new["verdict"])
    ]
    assert not moved, "simulated claims moved:\n" + "\n".join(moved)


def test_paper_command_rerenders_the_doc_from_the_small_record(written):
    record = json.loads((written / "EXPERIMENTS.unit.json").read_text())
    assert [c["id"] for c in record["claims"]] == [claim.id for claim in CLAIMS]
    small = committed("small")
    paper, beyond = (
        scoreboard.render({**small, "claims": [
            c for c in small["claims"] if c["id"].startswith("beyond.") == side]})
        for side in (False, True)
    )
    assert (written / "EXPERIMENTS.md").read_text() == (
        f"intro\n{scoreboard.BEGIN}{paper}{scoreboard.END}prose\n"
        f"{scoreboard.BEYOND_BEGIN}{beyond}{scoreboard.BEYOND_END}notes\n"
    )
