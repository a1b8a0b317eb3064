"""The verdict rule of scripts/bench_compare.py: wins, bound and gain per metric."""

import pytest

from conftest import load_script

bench_compare = load_script("bench_compare")

HIGHER = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
BASE = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0]


def summary(metric, base, head):
    return bench_compare._summary(metric, list(base), list(head))


@pytest.mark.parametrize("metric, better, worse", [(HIGHER, 12.0, 7.0), (LOWER, 8.0, 13.0)])
def test_a_better_median_in_every_pair_is_a_gain(metric, better, worse):
    s = summary(metric, BASE, [better] * 10)
    assert (s["head_wins"], s["head_losses"]) == (10, 0)
    assert s["gain"] and s["within_bound"]
    assert s["head_worse_by"] == pytest.approx(-0.2)
    s = summary(metric, BASE, [worse] * 10)
    assert (s["head_wins"], s["head_losses"]) == (0, 10)
    assert not s["gain"]
    assert s["head_worse_by"] == pytest.approx(0.3)
    assert not s["within_bound"]


@pytest.mark.parametrize("metric, step", [(HIGHER, 1.0), (LOWER, -1.0)])
def test_worse_within_the_bound_is_within_bound(metric, step):
    s = summary(metric, BASE, [10.0 - 2.0 * step] * 10)  # 20% worse, bound 25%
    assert s["within_bound"] and not s["gain"]
    s = summary(metric, BASE, [10.0 - 2.5 * step] * 10)  # exactly at the bound
    assert s["within_bound"]


@pytest.mark.parametrize("metric, step", [(HIGHER, 1.0), (LOWER, -1.0)])
def test_ties_count_for_neither_side(metric, step):
    head = [10.0 + 2.0 * step] * 8 + [10.0, 10.0]
    s = summary(metric, BASE, head)
    assert (s["head_wins"], s["head_losses"]) == (8, 0)
    assert not s["gain"]  # 8 of 10 pairs: a tie is not a win
    s = summary(metric, BASE, [10.0 + 2.0 * step] * 9 + [10.0])
    assert (s["head_wins"], s["head_losses"]) == (9, 0)
    assert s["gain"]  # 9 of 10 pairs is enough
    s = summary(metric, BASE, [10.0 + 2.0 * step] * 9 + [10.0 - 2.0 * step])
    assert (s["head_wins"], s["head_losses"]) == (9, 1)
    assert s["gain"]


@pytest.mark.parametrize("metric, step", [(HIGHER, 1.0), (LOWER, -1.0)])
def test_a_gain_must_exceed_the_base_quartile_distance(metric, step):
    base = [8.0, 8.0, 9.0, 9.0, 10.0, 10.0, 11.0, 11.0, 12.0, 12.0]  # q3 - q1 = 2
    s = summary(metric, base, [b + 1.0 * step for b in base])
    assert s["head_wins"] == 10 and not s["gain"]
    s = summary(metric, base, [b + 3.0 * step for b in base])
    assert s["gain"]


def fake_git(status):
    """A ``_git`` that reports ``status`` for ``git status --porcelain`` and
    a fixed sha for ``git rev-parse``, recording every call."""
    calls = []

    def git(*args):
        calls.append(args)
        return status if args[0] == "status" else "0" * 40
    return git, calls


class Exported(Exception):
    """Raised in place of the export, past the guard."""


def refuse_export(rev, into):
    raise Exported(rev)


def test_uncommitted_changes_stop_the_comparison(monkeypatch, tmp_path, capsys):
    git, calls = fake_git(" M src/diamond_wiretap/scalar_opt.py\n?? perfbench/new.py")
    monkeypatch.setattr(bench_compare, "_git", git)
    monkeypatch.setattr(bench_compare, "_export", refuse_export)
    out = tmp_path / "BENCH.json"
    assert bench_compare.main(["--base", "HEAD~1", "--out", str(out)]) == 2
    assert calls == [("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json")]
    assert "src/diamond_wiretap/scalar_opt.py" in capsys.readouterr().err
    assert not out.exists()


def test_a_clean_tree_gets_past_the_guard(monkeypatch, tmp_path):
    git, calls = fake_git("")
    monkeypatch.setattr(bench_compare, "_git", git)
    monkeypatch.setattr(bench_compare, "_export", refuse_export)
    with pytest.raises(Exported):
        bench_compare.main(["--base", "HEAD~1", "--out", str(tmp_path / "BENCH.json")])
    assert calls[0][0] == "status" and calls[1] == ("rev-parse", "HEAD~1")


@pytest.mark.parametrize("metric, step, best_base", [(HIGHER, 1.0, 14.0), (LOWER, -1.0, 6.0)])
def test_a_base_spread_beyond_the_bound_is_unresolved(metric, step, best_base):
    base = [6.0, 6.0, 8.0, 8.0, 10.0, 10.0, 12.0, 12.0, 14.0, 14.0]  # (q3 - q1)/median = 4/10 > 0.25
    s = summary(metric, base, base)
    assert s["within_bound"] and s["unresolved"]
    s = summary(metric, base, [b + step for b in base])  # wins every pair, but overlaps the base runs
    assert s["head_wins"] == 10 and s["unresolved"]
    assert summary(metric, base, [best_base] * 10)["unresolved"]  # ties the best base run
    assert not summary(metric, base, [best_base + step] * 10)["unresolved"]  # beats every base run


@pytest.mark.parametrize("metric", [HIGHER, LOWER])
def test_a_base_spread_at_the_bound_is_resolved(metric):
    # five runs put the quartiles on the second and fourth run
    assert not summary(metric, [6.0, 7.0, 8.0, 9.0, 10.0], [8.0] * 5)["unresolved"]  # 2/8 = 0.25
    assert summary(metric, [6.0, 7.0, 8.0, 9.5, 10.0], [8.0] * 5)["unresolved"]  # 2.5/8 > 0.25
    assert summary(metric, [0.0, 0.0, 0.0, 1.0, 1.0], [0.0] * 5)["unresolved"]  # any spread about 0
    assert not summary(metric, [0.0] * 5, [0.0] * 5)["unresolved"]
