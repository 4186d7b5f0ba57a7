"""scripts/propensity_schedule.py: its interval statistics and one small run."""

import pytest

from conftest import load_script


@pytest.fixture
def schedule():
    return load_script("propensity_schedule")


# Newcombe (1998), Statistics in Medicine 17:873-890, Table II, method 10
@pytest.mark.parametrize("counts,want", [
    ((56, 70, 48, 80), (0.0524, 0.3339)),
    ((9, 10, 3, 10), (0.1705, 0.8090)),
    ((5, 56, 0, 29), (-0.0381, 0.1926)),
    ((0, 10, 0, 20), (-0.1611, 0.2775)),
])
def test_newcombe_diff_matches_published_intervals(schedule, counts, want):
    a, n_a, b, n_b = counts
    diff, low, high = schedule.newcombe_diff(*counts)
    assert diff == pytest.approx(a / n_a - b / n_b)
    assert (round(low, 4), round(high, 4)) == want


def test_two_seed_run_prints_one_row_per_candidate(schedule, monkeypatch, capsys):
    monkeypatch.setattr(schedule, "SEEDS", range(100, 102))
    monkeypatch.setattr(schedule, "N_RECORDS", 600)
    monkeypatch.setattr(schedule, "CANDIDATES", [(64, 2e-3)])
    assert schedule.main() == 0
    rows = [line.strip("|").split("|") for line in capsys.readouterr().out.splitlines()
            if line.startswith("| 64 ")]
    assert len(rows) == 1
    (batch, lr, hits, discarded, mean, sd, balanced, median,
     p_hits, hits_diff, p_discards, discards_diff) = (cell.strip() for cell in rows[0])
    assert (batch, float(lr)) == ("64", 2e-3)
    for count, total in ((hits, 2), (discarded, 2), (balanced, 4)):
        got, of = map(int, count.split("/"))
        assert of == total and 0 <= got <= total
    assert 0.0 < float(median) < 10.0
    assert abs(float(mean) - 50.0) < 25.0 and float(sd) >= 0.0
    # no baseline besides itself
    assert (p_hits, hits_diff, p_discards, discards_diff) == ("-", "-", "-", "-")
