"""The verdict rule, the output parser and the workload flag of tools/ab.py on
fixed numbers and text; no process is started."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py"
)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# ten baseline runs: median 100.75, quartile spread 101.25 - 99.875 = 1.375
BASE = [100.0, 101.0, 99.0, 102.0, 100.0, 101.0, 99.5, 100.5, 102.5, 101.0]


def shifted(values, delta):
    return [v + delta for v in values]


class TestVerdict:
    def test_quartiles_match_the_bench_report(self):
        assert ab.quartiles(BASE) == pytest.approx((99.875, 100.75, 101.25))

    def test_ten_of_ten_wins_beyond_the_spread_is_a_gain(self):
        assert ab.wins(BASE, shifted(BASE, -3.0), "lower") == 10
        assert ab.verdict(BASE, shifted(BASE, -3.0), "lower", 0.25) == "gain"

    def test_nine_wins_suffice_and_eight_do_not(self):
        nine = shifted(BASE, -3.0)
        nine[0] = BASE[0] + 1.0
        assert ab.wins(BASE, nine, "lower") == 9
        assert ab.verdict(BASE, nine, "lower", 0.25) == "gain"
        eight = list(nine)
        eight[1] = BASE[1] + 1.0
        assert ab.wins(BASE, eight, "lower") == 8
        assert ab.verdict(BASE, eight, "lower", 0.25) == "no worse"

    def test_wins_within_the_spread_are_no_gain(self):
        # every pair wins, but the medians are 0.5 apart and the spread is 1.375
        cand = shifted(BASE, -0.5)
        assert ab.wins(BASE, cand, "lower") == 10
        assert ab.verdict(BASE, cand, "lower", 0.25) == "no worse"

    def test_no_worse_ends_at_the_bound(self):
        base_mid = ab.quartiles(BASE)[1]
        within = shifted(BASE, 0.25 * base_mid - 0.01)
        beyond = shifted(BASE, 0.25 * base_mid + 0.01)
        assert ab.verdict(BASE, within, "lower", 0.25) == "no worse"
        assert ab.verdict(BASE, beyond, "lower", 0.25) == "worse"

    def test_higher_is_better_flips_the_direction(self):
        assert ab.wins(BASE, shifted(BASE, 3.0), "higher") == 10
        assert ab.verdict(BASE, shifted(BASE, 3.0), "higher", 0.25) == "gain"
        assert ab.verdict(BASE, shifted(BASE, -3.0), "higher", 0.01) == "worse"

    def test_fewer_pairs_need_the_same_share(self):
        # 9 of 10 rounds up: 4 pairs need 4 wins
        base = BASE[:4]
        cand = shifted(base, -3.0)
        assert ab.verdict(base, cand, "lower", 0.25) == "gain"
        cand[0] = base[0]
        assert ab.verdict(base, cand, "lower", 0.25) == "no worse"


# the tail of one bench/run.py run's stdout, as it prints it
STDOUT = """workload s1-cfhfc seed 0 trace 0: 40 operations, 0 failed, 8 set-ups
digest 95946e890898a5022f00
machine {"nproc": 2}
  setup_s                p25 0.5312  p50 0.5401  p75 0.5522  n 8
  op_ms                  p25 258.1  p50 260.4  p75 263.9  n 40
  raw_setup_s            p25 0.2811  p50 0.2852  p75 0.2903  n 8
  raw_op_ms              p25 131.2  p50 132.5  p75 134.1  n 40
  round_ms_p50                         260.4 ms
  op_ms_p50                            260.4 ms
  setup_s                              0.5401 s
  peak_rss_mb                          63.25 MB
{"correct": true, "attempted": 40, "failed": 0, "metrics": {"op_ms_p50": {"value": 260.4, \
"unit": "ms"}, "setup_s": {"value": 0.5401, "unit": "s"}, "peak_rss_mb": {"value": 63.25, \
"unit": "MB"}}}
"""


class TestParse:
    def test_reads_metrics_raw_p50_and_digest(self):
        values, digest = ab.parse(STDOUT)
        assert digest == "95946e890898a5022f00"
        assert values == {"op_ms_p50": 260.4, "setup_s": 0.5401, "peak_rss_mb": 63.25,
                          "raw_op_ms": 132.5}


class TestWorkloads:
    @staticmethod
    def fake_run(calls):
        def run(tree, workload, seed, seconds):
            calls.append((tree, workload))
            return {**{m["name"]: 1.0 for m in ab.SPEC["end_to_end"]}, ab.RAW_OP_MS: 1.0}, "d"
        return run

    @pytest.mark.parametrize("workload", ["all", "s1"])
    def test_only_benchmark_workloads_are_taken(self, workload, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(ab, "run", self.fake_run(calls))
        with pytest.raises(SystemExit) as exc:
            ab.main(["base", "--workload", "s1-cfhfc", "--workload", workload])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert calls == []

    def test_each_repeated_workload_gets_its_own_verdict(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(ab, "run", self.fake_run(calls))
        assert ab.main(["base", "--workload", "s3-gate", "--workload", "compare-cli",
                        "--pairs", "2", "--seconds", "1"]) == 0
        base = Path("base").resolve()
        assert calls == [(tree, workload) for workload in ("s3-gate", "compare-cli")
                         for tree in (base, ab.ROOT, ab.ROOT, base)]
        out = capsys.readouterr().out
        for workload in ("s3-gate", "compare-cli"):
            assert f"{workload} seed 0, 2 pairs of 1 s; digests equal" in out
        assert out.count("no worse") == 2 * (len(ab.SPEC["end_to_end"]) + 1)
