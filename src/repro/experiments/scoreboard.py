"""The claims table: every paper-vs-measured number, once.

One ``Claim`` per number or ordering the paper reports that a figure
harness measures (read from the paper's text and, approximately, its
figures).  ``format_report``s print their ``paper=… measured=…`` lines from
it (``lines``); ``repro paper`` writes one ``record`` per scale;
EXPERIMENTS.md's table is ``render`` of the committed ``small`` record and
``tests/test_scoreboard.py`` pins the ``unit`` record's simulated claims.
The ``beyond.*`` claims are orderings the paper does not report, measured
by ``experiments/beyond.py``; EXPERIMENTS.md renders them as a second table.
"""

from __future__ import annotations

import dataclasses
import os
import platform
from typing import Any, Callable, Mapping

import numpy as np

from repro.metrics.summary import relative_improvement

#: The one verdict rule.  ✔: within 25 % of the paper's value, or the
#: ordering holds.  ◐: further off with the paper's sign.  ✘: wrong sign, or
#: the ordering fails.  ``n/a``: recorded, not judged (see ``PAPER_ISNS``).
TOLERANCE = 0.25
#: The paper's cluster: an ISN count or an absolute package wattage is in
#: "of 16 ISNs" units and is judged only on a 16-shard testbed.
PAPER_ISNS = 16
#: EXPERIMENTS.md holds ``render`` of the small record's paper claims between
#: these two lines, and of its ``beyond.*`` claims between the next two.
BEGIN, END = "<!-- scoreboard:begin -->\n", "<!-- scoreboard:end -->\n"
BEYOND_BEGIN, BEYOND_END = "<!-- beyond:begin -->\n", "<!-- beyond:end -->\n"


@dataclasses.dataclass(frozen=True)
class Claim:
    id: str  # "<cli.FIGURES key>.<name>"
    label: str
    paper: float | None  # None: an ordering the paper shows; measured is a bool
    measure: Callable[[Any], float]  # over the figure's ``run(testbed)`` result
    block: str | None = ""  # which part of the figure's report prints it; None: none
    clock: str = "sim"  # or "wall": this host's microseconds — never mixed
    of_16_isns: bool = False
    unit: str = ""
    #: The EXPERIMENTS.md deviation that explains a non-✔ at ``Scale.small``.
    deviation: int | None = None

    @property
    def figure(self) -> str:
        return self.id.split(".")[0]


def verdict(paper: float | None, measured: float) -> str:
    if paper is None:
        return "✔" if measured else "✘"
    if abs(measured - paper) <= TOLERANCE * abs(paper):
        return "✔"
    return "◐" if measured * paper > 0 else "✘"


def _cut(by_policy: Mapping[str, float], policy: str) -> float:
    return relative_improvement(by_policy["exhaustive"], by_policy[policy])


def _factor(by_policy: Mapping[str, float]) -> float:
    return by_policy["exhaustive"] / by_policy["cottage"]


def _less(table: Mapping[str, Any], a: str, b: str) -> bool:
    """``a < b`` on the Wikipedia and on the Lucene trace."""
    return all(row[a] < row[b] for row in table.values())


def _rows(r: Any, trace: str = "wikipedia") -> dict[str, Any]:
    return {row.scheme: row for row in r.rows[trace]}


def _outcome(r: Any, policy: str) -> Any:
    return next(o for o in r.outcomes if o.policy == policy)


def _budget_rule(paper: Any, conservative: Any, no_slack: Any) -> bool:
    """Pivoting on Q^K keeps quality; budgeting with no slack loses it."""
    return (conservative.avg_precision >= paper.avg_precision - 0.02
            and conservative.avg_latency_ms >= paper.avg_latency_ms * 0.95
            and no_slack.avg_precision <= paper.avg_precision + 0.01
            and bool(np.isfinite(no_slack.avg_latency_ms)))


# Abstract numbers that a figure repeats.
_CUT, _P95, _POWER, _P10, _ACTIVE = 0.54, 2.6, 0.413, 0.947, 6.81

CLAIMS: tuple[Claim, ...] = (
    # Headline — abstract and conclusion, Wikipedia trace.
    Claim("headline.latency_reduction", "avg latency reduction", _CUT,
          lambda r: r.latency_reduction),
    Claim("headline.latency_speedup", "avg latency speedup", 2.41,
          lambda r: r.latency_speedup),
    Claim("headline.p95_factor", "p95 latency factor", _P95, lambda r: r.p95_factor),
    Claim("headline.docs_ratio", "documents searched ratio", 2.67,
          lambda r: r.docs_ratio, deviation=3),
    Claim("headline.power_saving", "power saving", _POWER,
          lambda r: r.power_saving, deviation=3),
    Claim("headline.p_at_10", "P@10", _P10, lambda r: r.p_at_10),
    Claim("headline.active_isns", "active ISNs", _ACTIVE,
          lambda r: r.active_isns, of_16_isns=True),
    # Fig. 2 — workload variation.
    Claim("fig02.mode_fraction", "modal-bin fraction", 0.356,
          lambda r: r.mode_fraction, "a", deviation=4),
    Claim("fig02.modal_isns", "modal contributing ISNs", 8.0,
          lambda r: r.modal_contributing_isns, "b", of_16_isns=True, deviation=3),
    # Fig. 3 — one query, four policy families.
    Claim("fig03.cottage_keeps_quality", "cottage P@10 >= the blind aggregation cut's", None,
          lambda r: _outcome(r, "cottage").precision >= _outcome(r, "aggregation").precision),
    # Fig. 4 — frequency scaling of one hot query.
    Claim("fig04.speedup", "speedup 1.2 -> 2.7 GHz", 2.43, lambda r: r.speedup),
    # Fig. 7 / 8 — predictors: per-ISN held-out accuracy; inference time is wall.
    Claim("fig07.accuracy", "mean quality accuracy", 0.9471,
          lambda r: np.mean(r.per_isn_accuracy)),
    Claim("fig07.inference_us", "max inference time (us)", 41.0,
          lambda r: np.max(r.per_isn_inference_us), clock="wall", deviation=5),
    Claim("fig08.accuracy", "mean latency accuracy", 0.8723,
          lambda r: np.mean(r.per_isn_accuracy)),
    Claim("fig08.inference_us", "mean inference time (us)", 70.25,
          lambda r: np.mean(r.per_isn_inference_us), clock="wall", deviation=5),
    # Fig. 10 — latency.
    Claim("fig10.cottage_cut", "cottage avg reduction", _CUT,
          lambda r: _cut(r["wikipedia"].avg_ms, "cottage"), "wikipedia"),
    Claim("fig10.cottage_p95", "cottage p95 factor", _P95,
          lambda r: _factor(r["wikipedia"].p95_ms), "wikipedia"),
    Claim("fig10.taily_cut", "taily avg reduction", 0.0116,
          lambda r: _cut(r["wikipedia"].avg_ms, "taily"), "wikipedia", deviation=1),
    Claim("fig10.rank_s_cut", "rank_s avg reduction", 0.1112,
          lambda r: _cut(r["wikipedia"].avg_ms, "rank_s"), "wikipedia"),
    Claim("fig10.lucene_speedup", "cottage avg speedup", 2.29,
          lambda r: _factor(r["lucene"].avg_ms), "lucene", deviation=3),
    Claim("fig10.lucene_p95", "cottage p95 factor", 2.74,
          lambda r: _factor(r["lucene"].p95_ms), "lucene", deviation=3),
    Claim("fig10.exhaustive_avg_ms", "exhaustive avg latency, wikipedia (ms)", 17.26,
          lambda r: r["wikipedia"].avg_ms["exhaustive"], None, deviation=4),
    Claim("fig10.cottage_fastest", "cottage avg latency < taily, avg and p95 < exhaustive",
          None, lambda r: all(
              t.avg_ms["cottage"] < min(t.avg_ms["taily"], t.avg_ms["exhaustive"])
              and t.p95_ms["cottage"] < t.p95_ms["exhaustive"] for t in r.values())),
    # Fig. 11 — P@10.
    Claim("fig11.cottage_wiki", "cottage P@10 (wikipedia)", _P10,
          lambda r: r.p_at_10["wikipedia"]["cottage"]),
    Claim("fig11.cottage_lucene", "cottage P@10 (lucene)", 0.955,
          lambda r: r.p_at_10["lucene"]["cottage"]),
    Claim("fig11.taily_wiki", "taily P@10 (wikipedia)", 0.887,
          lambda r: r.p_at_10["wikipedia"]["taily"]),
    Claim("fig11.rank_s_max", "rank_s P@10 (max)", 0.709,
          lambda r: max(row["rank_s"] for row in r.p_at_10.values())),
    Claim("fig11.taily_lucene", "taily P@10 (lucene)", 0.878,
          lambda r: r.p_at_10["lucene"]["taily"], None),
    Claim("fig11.rank_s_lt_cottage", "rank_s P@10 < cottage", None,
          lambda r: _less(r.p_at_10, "rank_s", "cottage")),
    Claim("fig11.taily_lt_cottage", "taily P@10 < cottage", None,
          lambda r: _less(r.p_at_10, "taily", "cottage"), deviation=1),
    # Fig. 12 — latency-quality scatter.
    Claim("fig12.cottage_fast_and_good", "cottage fast-and-good share > rank_s", None,
          lambda r: r.fast_good_fraction["cottage"] > r.fast_good_fraction["rank_s"]),
    # Fig. 13 — active ISNs.
    Claim("fig13.cottage", "cottage", _ACTIVE,
          lambda r: r.active["wikipedia"]["cottage"], of_16_isns=True),
    Claim("fig13.taily", "taily", 13.0,
          lambda r: r.active["wikipedia"]["taily"], of_16_isns=True, deviation=1),
    Claim("fig13.rank_s", "rank_s", 11.0,
          lambda r: r.active["wikipedia"]["rank_s"], of_16_isns=True, deviation=3),
    Claim("fig13.cottage_lt_taily", "cottage selects fewer ISNs than taily", None,
          lambda r: _less(r.active, "cottage", "taily")),
    # Fig. 14 — package power.
    Claim("fig14.idle_w", "idle power", 14.53,
          lambda r: r.idle_w, of_16_isns=True, unit=" W"),
    Claim("fig14.exhaustive_w", "exhaustive power", 36.0,
          lambda r: r.power_w["wikipedia"]["exhaustive"], of_16_isns=True, unit=" W"),
    Claim("fig14.cottage_saving", "cottage power saving", _POWER,
          lambda r: _cut(r.power_w["wikipedia"], "cottage"), deviation=3),
    Claim("fig14.taily_saving", "taily power saving", 0.3112,
          lambda r: _cut(r.power_w["wikipedia"], "taily"), deviation=3),
    Claim("fig14.taily_lt_exhaustive", "taily power < exhaustive", None,
          lambda r: _less(r.power_w, "taily", "exhaustive")),
    Claim("fig14.cottage_lt_exhaustive", "cottage power < exhaustive", None,
          lambda r: _less(r.power_w, "cottage", "exhaustive")),
    # Fig. 15 — ablation (Wikipedia trace for the paper's numbers).
    Claim("fig15.isn_factor", "cottage_isn latency factor", 1.9,
          lambda r: _rows(r)["cottage_isn"].avg_latency_ms
          / _rows(r)["cottage"].avg_latency_ms, deviation=4),
    Claim("fig15.without_ml_p10", "cottage_without_ml P@10", 0.85,
          lambda r: _rows(r)["cottage_without_ml"].p_at_10),
    Claim("fig15.ml_isn_cut", "ML-driven active-ISN reduction", 0.43,
          lambda r: 1.0 - _rows(r)["cottage"].active_isns
          / _rows(r)["cottage_without_ml"].active_isns, deviation=1),
    Claim("fig15.ml_cres_cut", "ML-driven C_RES reduction", 0.48,
          lambda r: 1.0 - _rows(r)["cottage"].c_res
          / _rows(r)["cottage_without_ml"].c_res, deviation=1),
    Claim("fig15.coordination_buys_latency", "cottage avg latency < cottage_isn", None,
          lambda r: all(_rows(r, t)["cottage"].avg_latency_ms
                        < _rows(r, t)["cottage_isn"].avg_latency_ms for t in r.rows)),
    Claim("fig15.ml_buys_quality", "cottage_without_ml P@10 < cottage", None,
          lambda r: all(_rows(r, t)["cottage_without_ml"].p_at_10
                        < _rows(r, t)["cottage"].p_at_10 for t in r.rows)),
    # Beyond the paper: orderings it does not report, each with its margins.
    Claim("beyond.ablation_boost", "boost: avg <= 1.02x unboosted, power >= 0.98x", None,
          lambda r: r.boost["with"].avg_latency_ms <= r.boost["without"].avg_latency_ms * 1.02
          and r.boost["with"].avg_power_w >= r.boost["without"].avg_power_w * 0.98),
    Claim("beyond.ablation_budget_rule",
          "pivot on K: P@10 >= -0.02, avg >= 0.95x; no slack: P@10 <= +0.01", None,
          lambda r: _budget_rule(**r.budget_rule)),
    Claim("beyond.ablation_confidence",
          "cut gate 0.99 keeps >= P@10 and ISNs of gate 0.0 (dev. 2)", None,
          lambda r: r.confidence[0.99].avg_precision >= r.confidence[0.0].avg_precision
          and r.confidence[0.99].avg_selected_isns >= r.confidence[0.0].avg_selected_isns),
    Claim("beyond.ablation_latency_bins", "40 latency bins: rel. error <= 8 bins' + 0.05",
          None, lambda r: r.latency_bins[40][1] <= r.latency_bins[8][1] + 0.05),
    Claim("beyond.ext_fault_injection",
          "ISN outage: cottage avg < exhaustive+timeout, both P@10 > 0.4", None,
          lambda r: r.faults["cottage"][1] < r.faults["exhaustive+timeout"][1]
          and all(p > 0.4 for _, _, p in r.faults.values())),
    Claim("beyond.ext_load_sweep", "exhaustive/cottage avg > 1 at 1/4..1x load, >= 0.8x kept",
          None, lambda r: all(g > 1.0 for g in r.load_gaps)
          and r.load_gaps[-1] >= r.load_gaps[0] * 0.8),
    Claim("beyond.ext_oracle_gap", "cottage captures > 50% of the oracle's latency gain",
          None, lambda r: r.oracle["oracle"].avg_precision > 0.99
          and r.oracle["oracle"].avg_selected_isns <= r.oracle["cottage"].avg_selected_isns + 0.5
          and r.oracle_capture > 0.5),
    Claim("beyond.ext_result_cache", "result cache: hit rate > 0.3, lower avg latency", None,
          lambda r: r.cache_hit_rate > 0.3
          and r.cache["cached"].avg_latency_ms < r.cache["plain"].avg_latency_ms
          and r.cache["cached"].avg_power_w <= r.cache["plain"].avg_power_w + 0.1
          and not np.isnan(r.cache["cached"].avg_precision)),
    Claim("beyond.ext_significance", "cottage saving: 95% CI excludes 0, largest mean",
          None, lambda r: r.significance["cottage"].significant
          and r.significance["cottage"].ci_low > 0
          and r.significance["cottage"].mean_difference
          >= max(r.significance[p].mean_difference for p in ("taily", "rank_s"))),
)


def judge(claim: Claim, result: Any) -> dict[str, Any]:
    """One record row: the claim measured on its figure's result, then judged."""
    measured = claim.measure(result)
    measured = bool(measured) if claim.paper is None else float(measured)
    judged = not claim.of_16_isns or result.n_shards == PAPER_ISNS
    return {
        "id": claim.id,
        "label": claim.label,
        "clock": claim.clock,
        "paper": claim.paper,
        "measured": measured,
        "ratio": measured / claim.paper if judged and claim.paper else None,
        "verdict": verdict(claim.paper, measured) if judged else "n/a",
        "deviation": claim.deviation,
    }


def lines(figure: str, result: Any, block: str = "") -> list[str]:
    """One block of a figure report's aligned 'paper vs measured' lines."""
    out = []
    for claim in CLAIMS:
        if claim.figure != figure or claim.block != block or claim.paper is None:
            continue
        row = judge(claim, result)
        line = (
            f"  {claim.label:<44} paper={claim.paper:<10.4g} "
            f"measured={row['measured']:.4g}{claim.unit}"
        )
        if row["verdict"] == "n/a":
            line += f"  n/a: paper is of {PAPER_ISNS} ISNs, testbed has {result.n_shards}"
        out.append(line)
    return out


def record(scale_name: str, testbed: Any, figures: Mapping[str, Any]) -> dict[str, Any]:
    """Every claim measured on one testbed; ``figures`` is ``cli.FIGURES``."""
    names = dict.fromkeys(claim.figure for claim in CLAIMS)
    results = {name: figures[name].run(testbed) for name in names}
    return {
        "scale": scale_name,
        "config": dataclasses.asdict(testbed.scale),
        "seed": testbed.scale.seed,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "tolerance": TOLERANCE,
        "claims": [judge(claim, results[claim.figure]) for claim in CLAIMS],
    }


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "holds" if value else "fails"
    return "—" if value is None else f"{value:.4g}"


def render(rec: Mapping[str, Any]) -> str:
    """EXPERIMENTS.md's scoreboard table, from a record."""
    config, host = rec["config"], rec["host"]
    out = [
        f"From `EXPERIMENTS.{rec['scale']}.json`: {config['n_shards']} ISNs, "
        f"{config['corpus']['n_docs']} documents, {config['trace_rate_qps']:g} qps for "
        f"{config['trace_duration_s']:g} s, seed {rec['seed']}; ✔ is within "
        f"{rec['tolerance']:.0%} of the paper.  `wall` rows are microseconds on the "
        f"recording host ({host['machine']}, {host['cpus']} CPUs, Python "
        f"{host['python']}, numpy {host['numpy']}); all others are simulated.",
        "",
        "| Claim | Id | Paper | Measured | Ratio | Verdict |",
        "|---|---|---|---|---|---|",
    ]
    for c in rec["claims"]:
        mark = c["verdict"]
        if mark in ("◐", "✘") and c["deviation"] is not None:
            mark += f" dev. {c['deviation']}"
        measured = _cell(c["measured"]) + (" (wall)" if c["clock"] == "wall" else "")
        out.append(f"| {c['label']} | `{c['id']}` | {_cell(c['paper'])} | {measured} "
                   f"| {_cell(c['ratio'])} | {mark} |")
    return "\n".join(out) + "\n"


def rerender(doc: str, rec: Mapping[str, Any]) -> str:
    """``doc`` with each marked table replaced by ``render`` of its rows of ``rec``."""
    for begin, end, beyond in ((BEGIN, END, False), (BEYOND_BEGIN, BEYOND_END, True)):
        head, found, rest = doc.partition(begin)
        if found:
            rows = [c for c in rec["claims"] if c["id"].startswith("beyond.") == beyond]
            table = render({**rec, "claims": rows})
            doc = head + begin + table + end + rest.partition(end)[2]
    return doc
