"""The evaluation's gate: ``python -m repro`` names each of the paper's
claims that stops holding and exits 1.

Every test here runs on a fabricated :class:`figures.Evaluation` (numbers
shaped like EXPERIMENTS.md's), so no experiment runs.
"""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.bench import figures
from repro.bench.harness import SubsetSumRun

TRACKED_RECORD = Path(__file__).resolve().parents[2] / "BENCH_figures.json"

FIG6_TOTAL = "Fig 6: the prefiltered plan takes under 6 % of a CPU at 100 samples"
FIG2_RELAXED = "Fig 2: relaxed estimates are within 8 % of the actual sums on average"


def _run(estimate, admitted, cleanings, final):
    windows = range(5)
    return SubsetSumRun(
        label="fabricated",
        target=10,
        window_seconds=20,
        estimates={w: estimate for w in windows},
        admitted={w: admitted for w in windows},
        cleanings={w: cleanings for w in windows},
        outputs={w: final for w in windows},
    )


def _sweep(*rows):
    return figures.SweepResult(label="fabricated", headers=["x"] * len(rows[0]), rows=list(rows))


def holding():
    """An evaluation on which every claim holds."""
    targets = [100, 1000, 10000]
    relaxed_cpu = {100: 4.6, 1000: 5.2, 10000: 8.8}
    return figures.Evaluation(
        accuracy=figures.AccuracyResult(
            windows=list(range(5)),
            actual={w: 1000.0 for w in range(5)},
            relaxed=_run(995.0, admitted=50, cleanings=3, final=10),
            nonrelaxed=_run(800.0, admitted=5, cleanings=0, final=5),
            target=10,
        ),
        cpu=figures.CpuUsageResult(
            targets=targets,
            relaxed=relaxed_cpu,
            nonrelaxed={100: 4.6, 1000: 4.9, 10000: 7.0},
            basic={t: 4.0 for t in targets},
            low_level={t: 60.5 for t in targets},
        ),
        low_level=figures.LowLevelResult(
            targets=targets,
            selection_fed=dict(relaxed_cpu),
            prefilter_fed={100: 0.1, 1000: 0.9, 10000: 6.2},
            selection_low_cpu=60.5,
            # 34.5 at 10 000 is over a third of the selection's: that
            # point is outside the claim (EXPERIMENTS.md, Fig 6).
            prefilter_low_cpu={100: 4.6, 1000: 9.7, 10000: 34.5},
        ),
        accuracy_sweep=_sweep((20, 0.06, 0.17), (200, 0.007, 0.13), (2000, 0.0, 0.03)),
        gamma=_sweep((1.5, 5.2, 21), (8.0, 5.6, 4)),
        relax_factor=_sweep((1.0, 0.13, 0.27), (10.0, 0.007, 2.5), (30.0, 0.007, 2.7)),
        adjustment=_sweep(("solve", 0.007, 0), ("aggressive", 0.007, 0)),
        prefilter=_sweep((1.0, 4.6, 0.2, 994.0), (0.1, 9.7, 0.9, 999.0), (0.02, 28.3, 2.5, 999.0)),
        ddos=_sweep((0, 2925, "OK", 801, 399, 0.87), (1, 102404, "EXHAUSTED", 801, 399, 0.97)),
        variance=figures.VarianceResult(
            label="fabricated",
            headers=["sampler", "rel. bias", "rel. RMSE"],
            rows=[
                ("uniform (Bernoulli)", 0.2, 1.4),
                ("systematic (DROP)", 0.14, 1.27),
                ("threshold (subset-sum)", -0.006, 0.046),
                ("priority", -0.006, 0.048),
            ],
            gap=746.0,
        ),
    )


def broken(evaluation):
    return [claim for claim, holds in evaluation.verdicts() if not holds]


def test_every_claim_holds_on_the_fabricated_evaluation():
    assert broken(holding()) == []


def test_the_prefiltered_plan_is_gated_at_six_percent():
    evaluation = holding()
    evaluation.low_level.prefilter_low_cpu[100] = 7.0  # 7.1 % in all
    assert broken(evaluation) == [FIG6_TOTAL]


def test_main_names_a_broken_claim_and_exits_1(monkeypatch, tmp_path, capsys):
    evaluation = holding()
    evaluation.accuracy.relaxed.estimates.update({w: 850.0 for w in range(5)})
    monkeypatch.setattr(figures, "evaluate", lambda: evaluation)
    monkeypatch.chdir(tmp_path)
    assert main([]) == 1
    out, err = capsys.readouterr()
    assert err.splitlines() == [f"claim does not hold: {FIG2_RELAXED}"]
    assert f"BROKEN  {FIG2_RELAXED}" in out


def test_main_rewrites_the_record_with_its_tracked_keys(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(figures, "evaluate", holding)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCH_figures.json").write_text('{"stale": {}}\n')
    assert main([]) == 0
    record = json.loads((tmp_path / "BENCH_figures.json").read_text())
    assert set(record) == set(json.loads(TRACKED_RECORD.read_text()))
    assert record["fig6_low_level_query_type"]["prefilter_total_cpu_at_100"] == 4.7
    assert "=== Figure 2: accuracy of summation ===" in capsys.readouterr().out


def test_main_takes_no_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--full"])
    assert exc.value.code == 2
