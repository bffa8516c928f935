import gc
import hashlib
import json
import math
import os
from fractions import Fraction
from xml.etree import ElementTree

import numpy as np
import pytest

from conftest import count_critical_sets
from xorsatlab import experiments
from xorsatlab import formulas as F
from xorsatlab.experiments import _KINDS, ExperimentConfig, _run_one, run_experiment
from xorsatlab.gf2 import BitMatrix, rank, solve
from xorsatlab.instances import Instance, gen_constrained
from xorsatlab.rng import Seed
from xorsatlab.svg import plot_hk, plot_sweep


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("sat_dip", 3, 100, 5, 0, c_grid=[0.5]).validate()
    with pytest.raises(ValueError):
        ExperimentConfig("sat_sweep", 3, 100, 0, 0, c_grid=[0.5]).validate()
    with pytest.raises(ValueError):
        ExperimentConfig("sat_sweep", 3, 100, 5, 0, c_grid=[0.9, 0.8]).validate()
    with pytest.raises(ValueError):
        ExperimentConfig("sat_sweep", 3, 100, 5, 0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig("window_check", 3, 100, 5, 0).validate()
    with pytest.raises(ValueError, match="exactly one density"):
        ExperimentConfig("collision_check", 3, 60, 5, 0, m_list=[80, 90]).validate()
    # gamma and the collision law's tilt need k >= 3 and km > 2n: refused before any trial runs
    with pytest.raises(ValueError, match=r"^collision_check needs k >= 3 and km > 2n, got k=3, m=40, n=60$"):
        ExperimentConfig("collision_check", 3, 60, 50, 0, m_list=[40]).validate()
    with pytest.raises(ValueError, match=r"^collision_check needs k >= 3 and km > 2n, got k=2, m=80, n=60$"):
        ExperimentConfig("collision_check", 2, 60, 50, 0, m_list=[80]).validate()
    ExperimentConfig("collision_check", 3, 60, 50, 0, m_list=[41]).validate()
    with pytest.raises(ValueError, match="n <= 4000"):
        ExperimentConfig("critical_census", 3, 5000, 1, 0, m_list=[4000]).validate()
    for model in ("foo", "unconstraned", "relaxed_C"):
        with pytest.raises(ValueError, match="unknown model"):
            ExperimentConfig("sat_sweep", 3, 100, 5, 0, model, c_grid=[0.5]).validate()
    # the reader refuses a config with missing fields or one that is not an object
    with pytest.raises(ValueError, match="config JSON has no 'n', 'trials', 'master_seed'"):
        ExperimentConfig.from_json_dict({"kind": "sat_sweep", "k": 3, "c_grid": [0.5]})
    with pytest.raises(ValueError, match="config JSON must be an object, not list"):
        ExperimentConfig.from_json_dict(["kind", "sat_sweep"])
    cfg = ExperimentConfig("sat_sweep", 3, 100, 5, 0, c_grid=[0.8, 0.9])
    cfg.validate()
    assert [p["m"] for p in cfg.points()] == [80, 90]
    back = ExperimentConfig.from_json_dict(cfg.to_json_dict())
    assert back == cfg


def test_sweep_reproducible_across_worker_counts(tmp_path):
    outs = []
    for workers in (1, 4):
        out = tmp_path / f"sweep_w{workers}.csv"
        cfg = ExperimentConfig(
            "sat_sweep", 3, 250, 12, 777, "unconstrained", c_grid=[0.85, 0.95], out=str(out), workers=workers
        )
        aggs, rows, summary = run_experiment(cfg)
        outs.append((out.read_bytes(), summary["csv_sha256"], [(a["c"], a["sat_count"]) for a in aggs]))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]
    assert outs[0][2] == outs[1][2]


def test_worker_pool_is_bounded_by_tasks_and_cores(monkeypatch):
    # a process pool forks all its workers at the first submit; this stand-in
    # records the size asked for and maps in-process, so no process starts
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
    args, kwargs = ("sat_sweep", 3, 200, 2, 11), {"c_grid": [0.85, 0.95]}  # 4 tasks
    _, _, serial = run_experiment(ExperimentConfig(*args, **kwargs, workers=1))
    assert sizes == []
    _, _, pooled = run_experiment(ExperimentConfig(*args, **kwargs, workers=10**6))
    assert len(sizes) == 1 and 1 <= sizes[0] <= min(4, os.cpu_count() or 1)
    assert pooled["csv_sha256"] == serial["csv_sha256"]
    assert pooled["config"]["workers"] == 10**6


def test_sweep_rows_allow_single_trial_replay(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = ExperimentConfig("sat_sweep", 3, 150, 6, 555, "unconstrained", c_grid=[0.9], out=str(out))
    _, rows, _ = run_experiment(cfg)
    row = rows[3]
    # regenerate the trial from the recorded stream and recheck satisfiability
    from xorsatlab.instances import gen_unconstrained
    from xorsatlab.peel import two_core

    inst = gen_unconstrained(3, row["m"], row["n"], Seed(555, row["stream"]))
    core, _ = two_core(inst)
    res = solve(BitMatrix.from_sparse_rows(core.n, core.rows), core.rhs)
    assert int(res.consistent) == row["sat"]


def test_sweep_constrained_model():
    cfg = ExperimentConfig("sat_sweep", 3, 40, 6, 3, "constrained", m_list=[34, 44])
    aggs, rows, _ = run_experiment(cfg)
    assert [a["m"] for a in aggs] == [34, 44]
    assert all(r["core_vars"] == 40 for r in rows)


def test_census_identity_and_full_rank_all_rhs():
    cfg = ExperimentConfig("critical_census", 3, 6, 25, 99, m_list=[4])
    aggs, rows, _ = run_experiment(cfg)
    assert aggs[0]["identity_checked"] == 25
    assert aggs[0]["identity_ok"] == 25
    # a full-row-rank instance has no critical sets and every rhs satisfiable
    for trial in range(200):
        inst = gen_constrained(3, 6, 8, Seed(1234, trial))
        mat = BitMatrix.from_sparse_rows(8, inst.rows)
        if rank(mat) == 6:
            assert count_critical_sets(mat) == 0
            for bits in range(1 << 6):
                b = [(bits >> i) & 1 for i in range(6)]
                assert solve(mat, b).consistent
            break
    else:
        pytest.fail("no full-rank instance found")


def rhs_average_ratio(mat: BitMatrix):
    """E_b[N(b)^2] / E_b[N(b)]^2 over all 2^rows rhs vectors b, from one
    `solve` per b; None unless sum_b N(b) = 2^cols."""
    counts = []
    for bits in range(1 << mat.rows):
        res = solve(mat, [(bits >> i) & 1 for i in range(mat.rows)])
        counts.append(1 << res.solution_count_log2 if res.consistent else 0)
    if sum(counts) != 1 << mat.cols:
        return None
    return Fraction(sum(c * c for c in counts) << mat.rows, 1 << 2 * mat.cols)


def test_rhs_average_identity_matches_solving_every_rhs(monkeypatch):
    import xorsatlab.experiments as E

    cases = [gen_constrained(3, m, n, Seed(77, t)) for t, (m, n) in enumerate([(4, 6), (6, 8), (8, 10), (10, 10)] * 3)]
    refs = [rhs_average_ratio(BitMatrix.from_sparse_rows(inst.n, inst.rows)) for inst in cases]

    def no_solve(*args):
        raise AssertionError("the identity check called solve")

    monkeypatch.setattr(E, "solve", no_solve)
    for inst, ratio in zip(cases, refs):
        critical = (1 << inst.m - rank(BitMatrix.from_sparse_rows(inst.n, inst.rows))) - 1
        assert ratio == critical + 1
        assert E._rhs_average_identity(inst, critical)
        assert not E._rhs_average_identity(inst, critical + 1)
    assert {int(r) for r in refs} != {1}  # some instances have critical sets


def test_census_rejects_large_n():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig("critical_census", 3, 5000, 1, 0, m_list=[4000]))


def test_core_check_aggregates():
    cfg = ExperimentConfig("core_check", 3, 4000, 6, 2024, c_grid=[0.7, 0.95])
    aggs, rows, _ = run_experiment(cfg)
    sub = aggs[0]
    assert sub["empty_cores"] >= 5  # far below the emergence threshold
    dense = aggs[1]
    assert abs(dense["mean_core_vars_frac"] - dense["predicted_core_vars_frac"]) < 0.03
    assert abs(dense["mean_core_eqs_frac"] - dense["predicted_core_eqs_frac"]) < 0.03


def test_collision_check_moments():
    cfg = ExperimentConfig("collision_check", 3, 250, 2500, 31, m_list=[300])
    agg, rows, _ = run_experiment(cfg)
    assert agg["samples"] == 2500
    g = agg["gamma"]
    assert abs(agg["mean_collisions"] - g) < 0.08 * g
    assert abs(agg["second_factorial_moment"] - g * g) < 0.15 * g * g
    assert abs(agg["p_zero"] - agg["exp_neg_gamma"]) < 0.3 * agg["exp_neg_gamma"]


def test_window_check_shape_and_monotonicity():
    cfg = ExperimentConfig("window_check", 3, 120, 60, 8, w_list=[2, 5, 10])
    aggs, rows, _ = run_experiment(cfg)
    assert len(aggs) == 6
    plus = {a["w"]: a for a in aggs if a["side"] == "+"}
    assert plus[5]["unsat_envelope"] == 2.0**-5
    # sat fraction non-increasing in m, allowing 2 sigma slack
    by_m = sorted(aggs, key=lambda a: a["m"])
    for lo, hi in zip(by_m, by_m[1:]):
        sigma = math.sqrt(0.25 / cfg.trials)
        assert hi["sat_frac"] <= lo["sat_frac"] + 2 * sigma


# csv_sha256 of small campaigns of every kind, as produced before the five
# per-kind run functions were merged into run_experiment; the constrained
# sweep's m = 34 point and window_check draw their column totals by the
# solved pair, so those two digests were taken after it came in
PINNED_CAMPAIGNS = {
    "sat_sweep": (("sat_sweep", 3, 200, 5, 11), {"c_grid": [0.85, 0.95]},
                  "1d31b161b3ec3927f4f17c8aa750226dc111195e759904bfdb1a264bafc66090"),
    "sat_sweep_constrained": (("sat_sweep", 3, 40, 5, 3, "constrained"), {"m_list": [34, 44]},
                              "32647ce50adccd51a869cd32c7c989ab1784b1eda5b25791cac619847f5beaee"),
    "critical_census": (("critical_census", 3, 6, 6, 99), {"m_list": [4, 5]},
                        "de386613749771a5263fbefffd97704cc511d3de9f248018900a39cc7f9103fd"),
    "core_check": (("core_check", 3, 800, 4, 2024), {"c_grid": [0.7, 0.95]},
                   "fd79a86b442271b012d7067553737a1f3a7930861d767ee8ec81407b7c739596"),
    "collision_check": (("collision_check", 3, 60, 300, 17), {"m_list": [80]},
                        "c8e8b2d19985779ebaed464f6c40c49c93de0207fddeec5b856c73020432197b"),
    "window_check": (("window_check", 3, 120, 6, 8), {"w_list": [2, 5]},
                     "e505ea8a4a6ac4c7424bbd2c3c9be29e3facf8472d168faa90ed4bc2384951c0"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", list(PINNED_CAMPAIGNS))
def test_campaign_csv_bytes_pinned(tmp_path, name, workers):
    args, kwargs, digest = PINNED_CAMPAIGNS[name]
    out = tmp_path / "pinned.csv"
    _, rows, summary = run_experiment(ExperimentConfig(*args, **kwargs, out=str(out), workers=workers))
    assert summary["csv_sha256"] == digest
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    # the kind's CSV header is the schema of every returned row, keys in order
    assert all(list(row) == _KINDS[args[0]][1] for row in rows)


@pytest.mark.parametrize("name", list(PINNED_CAMPAIGNS))
def test_campaign_reads_no_row_or_rhs_lists(monkeypatch, name):
    # trials read the index and bit arrays only: with the list views made to
    # raise, every kind still gives its pinned CSV
    def refuse(inst):
        raise AssertionError("a campaign trial read Instance.rows or Instance.rhs")

    monkeypatch.setattr(Instance, "rows", property(refuse))
    monkeypatch.setattr(Instance, "rhs", property(refuse))
    args, kwargs, digest = PINNED_CAMPAIGNS[name]
    _, _, summary = run_experiment(ExperimentConfig(*args, **kwargs, workers=1))
    assert summary["csv_sha256"] == digest


@pytest.mark.parametrize("name", list(PINNED_CAMPAIGNS))
def test_config_echo_runs_again(name):
    # a summary's config echo (with any forced model) reads back and reproduces the CSV
    args, kwargs, digest = PINNED_CAMPAIGNS[name]
    _, _, summary = run_experiment(ExperimentConfig(*args, **kwargs))
    _, _, again = run_experiment(ExperimentConfig.from_json_dict(summary["config"]))
    assert summary["csv_sha256"] == again["csv_sha256"] == digest


def test_campaigns_never_lift_a_solution(monkeypatch):
    # trials read only the verdict and rank of `solve`: with the lift of a
    # solution and `_canonical` made to raise, every campaign that solves
    # still gives its pinned CSV, here with satisfiable trials at n = 300
    from xorsatlab import gf2

    def refuse(*args):
        raise AssertionError("a campaign trial computed a solution")

    monkeypatch.setattr(gf2, "_lift", refuse)
    monkeypatch.setattr(gf2, "_canonical", refuse)
    both_sides = (("sat_sweep", 3, 300, 8, 30), {"c_grid": [0.87, 0.97]},
                  "a94f710ea7f1aec277ad5d4e9847abca806b55426dcb9fa9794441dd932eac63")
    names = ("sat_sweep", "sat_sweep_constrained", "critical_census", "window_check")
    for args, kwargs, digest in (both_sides, *(PINNED_CAMPAIGNS[name] for name in names)):
        _, rows, summary = run_experiment(ExperimentConfig(*args, **kwargs, workers=1))
        assert summary["csv_sha256"] == digest
        assert any(row["sat"] for row in rows)


@pytest.mark.parametrize("name", list(PINNED_CAMPAIGNS))
def test_campaign_csv_same_under_both_kernels(monkeypatch, ext_kernel, name):
    # the README's claim: campaign CSVs are byte-identical under either backend
    from xorsatlab import gf2
    from xorsatlab._kernel import fallback

    args, kwargs, digest = PINNED_CAMPAIGNS[name]
    digests = []
    for kernel in (ext_kernel.eliminate_words, fallback.eliminate_words):
        monkeypatch.setattr(gf2, "eliminate_words", kernel)
        _, _, summary = run_experiment(ExperimentConfig(*args, **kwargs, workers=1))
        digests.append(summary["csv_sha256"])
    assert digests == [digest, digest]


def test_forced_model_shows_in_config_echo():
    # an omitted model echoes the kind's forced model, or unconstrained where none is forced
    for kind, model, kw in (("window_check", "constrained", {"w_list": [3]}),
                            ("core_check", "unconstrained", {"c_grid": [0.9]}),
                            ("collision_check", "relaxed_C", {"m_list": [40]}),
                            ("sat_sweep", "unconstrained", {"c_grid": [0.9]})):
        cfg = ExperimentConfig(kind, 3, 40, 2, 2, **kw)
        _, _, summary = run_experiment(cfg)
        assert summary["config"] == {**cfg.to_json_dict(), "model": model}
        assert cfg.model is None
        assert "tiny_identity_max" not in summary["config"]
        # naming the forced model is the same config
        _, _, named = run_experiment(ExperimentConfig(kind, 3, 40, 2, 2, model, **kw))
        assert named["config"] == summary["config"] and named["csv_sha256"] == summary["csv_sha256"]


@pytest.mark.parametrize("kind,model,kw,forced", [
    ("window_check", "unconstrained", {"w_list": [3]}, "constrained"),
    ("core_check", "constrained", {"c_grid": [0.9]}, "unconstrained"),
    ("collision_check", "constrained", {"m_list": [40]}, "relaxed_C"),
])
def test_model_contradicting_the_forced_one_is_refused(kind, model, kw, forced):
    cfg = ExperimentConfig(kind, 3, 40, 2, 2, model, **kw)
    with pytest.raises(ValueError, match=rf"^{kind} runs the {forced} model, not '{model}'$"):
        run_experiment(cfg)


@pytest.mark.parametrize("kind, grids, message", [
    ("sat_sweep", {"c_grid": [0.9], "m_list": [50]}, "sat_sweep takes one grid, c_grid or m_list; got c_grid and m_list"),
    ("window_check", {"c_grid": [0.9]}, "window_check takes one grid, w_list; got c_grid"),
    ("window_check", {"c_grid": [0.9], "w_list": [3]}, "window_check takes one grid, w_list; got c_grid and w_list"),
    ("core_check", {"w_list": [3]}, "core_check takes one grid, c_grid or m_list; got w_list"),
    ("core_check", {"m_list": [30], "w_list": [3]}, "core_check takes one grid, c_grid or m_list; got m_list and w_list"),
    ("critical_census", {}, "critical_census takes one grid, c_grid or m_list; got none"),
    ("window_check", {"w_list": []}, "window_check takes one grid, w_list; got none"),
], ids=["sweep_two", "window_c_grid", "window_two", "core_w_list", "core_two", "census_none", "window_empty"])
def test_config_takes_exactly_its_own_grid(monkeypatch, kind, grids, message):
    trials = []
    monkeypatch.setattr(experiments, "_run_one", trials.append)
    with pytest.raises(ValueError, match=rf"^{message}$"):
        run_experiment(ExperimentConfig(kind, 3, 40, 2, 2, **grids))
    assert trials == []


def test_empty_m_list_leaves_the_c_grid():
    cfg = ExperimentConfig("core_check", 3, 40, 2, 2, c_grid=[0.9], m_list=[])
    assert cfg.points() == [{"m": 36, "c": 0.9}]
    cfg.validate()


def test_run_experiment_dispatch():
    cfg = ExperimentConfig("core_check", 3, 500, 2, 5, c_grid=[0.95])
    aggs, rows, summary = run_experiment(cfg)
    assert summary["config"]["kind"] == "core_check"
    assert len(rows) == 2


PLOT_CSV = (
    "point,c,n,m,trial,stream,sat,nullity\n"
    "0,0.8,100,80,0,0,1,0\n"
    "0,0.8,100,80,1,1,1,1\n"
    "1,0.9,100,90,0,2,1,2\n"
    "1,0.9,100,90,1,3,0,3\n"
    "2,1.0,100,100,0,4,0,5\n"
    "2,1.0,100,100,1,5,0,4\n"
    "0,0.8,200,160,0,0,1,0\n"
    "0,0.8,200,160,1,1,1,0\n"
    "1,0.9,200,180,0,2,1,1\n"
    "1,0.9,200,180,1,3,1,2\n"
    "2,1.0,200,200,0,4,0,7\n"
    "2,1.0,200,200,1,5,0,6\n"
)


@pytest.fixture
def plot_csv(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text(PLOT_CSV)
    return str(path)


class TestPlots:
    def test_sweep_plot_three_series(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text(
            "point,c,n,m,trial,stream,sat\n"
            + "".join(
                f"0,{c},{n},{int(c * n)},{t},{t},{int(c < 0.9)}\n"
                for n in (100, 200, 300)
                for c in (0.8, 0.9, 1.0)
                for t in range(3)
            )
        )
        out = tmp_path / "chart.svg"
        text = plot_sweep(str(csv_path), str(out), x="c", y="sat", series="n")
        assert out.exists() and text.startswith("<svg")
        assert text.count("<polyline") == 3

    def test_hk_mode_orders_by_density(self, tmp_path):
        out = tmp_path / "hk.svg"
        plot_hk(str(out), k=4, c_values=[0.51, 1.0, 1.1])
        assert out.exists()
        # bottom-to-top ordering of the curves, sampled where they separate
        # (at the extreme tails all three pinch together and the zeta recipe's
        # c-dependence makes the strict ordering numerically false)
        for alpha in np.linspace(0.025, 0.78, 49):
            vals = [F.H_k(alpha, F.zeta_choice(4, c, alpha), c, 4) for c in (0.51, 1.0, 1.1)]
            assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12

    def test_kink_at_alpha_k(self):
        # slope changes where the zeta recipe switches forms
        k, c = 4, 1.0
        ak = 0.99 * F.alpha_k(k)
        eps = 1e-4
        left = (F.H_k(ak - eps, F.zeta_choice(k, c, ak - eps), c, k) - F.H_k(ak - 3 * eps, F.zeta_choice(k, c, ak - 3 * eps), c, k)) / (2 * eps)
        right = (F.H_k(ak + 3 * eps, F.zeta_choice(k, c, ak + 3 * eps), c, k) - F.H_k(ak + eps, F.zeta_choice(k, c, ak + eps), c, k)) / (2 * eps)
        assert abs(left - right) > 0.05

    def test_empty_csv_errors_without_file(self, tmp_path):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("point,c,n,m,trial,stream,sat\n")
        out = tmp_path / "nope.svg"
        with pytest.raises(ValueError):
            plot_sweep(str(csv_path), str(out), x="c", y="sat", series="n")
        assert not out.exists()

    def test_misspelled_keyword_raises_type_error(self, tmp_path, plot_csv):
        out = tmp_path / "x.svg"
        with pytest.raises(TypeError):
            plot_sweep(plot_csv, str(out), xcol="m", y="sat", series="c")
        with pytest.raises(TypeError):
            plot_hk(str(out), k=4, c_value=[1.0])
        assert not out.exists()

    @pytest.mark.parametrize("columns", [("c", "sat", "nn"), ("cc", "sat", "n"), ("c", "sats", "n")])
    def test_missing_column_is_refused_before_writing(self, tmp_path, plot_csv, columns):
        out = tmp_path / "x.svg"
        x, y, series = columns
        missing = next(col for col in columns if col not in ("c", "sat", "n"))
        with pytest.raises(ValueError, match=rf"^CSV lacks columns '{missing}'$"):
            plot_sweep(plot_csv, str(out), x=x, y=y, series=series)
        assert not out.exists()

    # sha256 of the SVG text, as the single plot function with a mode argument wrote it
    @pytest.mark.parametrize("plot, digest", [
        (lambda csv, out: plot_sweep(csv, out, x="c", y="sat", series="n"),
         "027735fc1d51640ebfeee790dc38aefd6ce4f90ff72e319aba07b96fc6e3dbae"),
        (lambda csv, out: plot_sweep(csv, out, x="m", y="nullity", series="c"),
         "8e6424c9abf9cdd628deecb21ab8fe959f9373597334c5a4fcff6181bd85bcb8"),
        (lambda csv, out: plot_hk(out, k=4, c_values=[0.51, 1.0, 1.1]),
         "e54b47c7975ad45fba7f90729c67b02b4b6ad55d00a3a1d95dca9a077efe1c5b"),
    ], ids=["sweep_default", "sweep_m_nullity_c", "hk"])
    def test_svg_bytes_pinned(self, tmp_path, plot_csv, plot, digest):
        out = tmp_path / "chart.svg"
        text = plot(plot_csv, str(out))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert out.read_text() == text

    def test_labels_are_escaped(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("c,sat,model\n0.8,1,a&b\n0.9,0,a&b\n0.8,1,x<y\n0.9,1,x<y\n")
        out = tmp_path / "chart.svg"
        plot_sweep(str(csv_path), str(out), x="c", y="sat", series="model")
        texts = [el.text for el in ElementTree.parse(out).iter("{http://www.w3.org/2000/svg}text")]
        assert "model=a&b" in texts and "model=x<y" in texts

    def test_escape_matches_xml_sax(self):
        from xml.sax.saxutils import escape

        from xorsatlab.svg import _escape

        for text in ("", "plain", "a&b", "x<y>z", "&amp;", "<&>", "a>&<b&&>"):
            assert _escape(text) == escape(text)


def test_run_one_leaves_the_collector_alone(monkeypatch):
    seen = []

    def task(params, seed):
        seen.append(gc.isenabled())
        if params["fail"]:
            raise RuntimeError("task failed")
        return {"core_vars": 0, "core_eqs": 0, "ratio": ""}

    monkeypatch.setitem(_KINDS, "core_check", (task, *_KINDS["core_check"][1:]))
    params = {"master": 1, "k": 3, "n": 10, "model": "unconstrained", "c": 0.5, "m": 5, "fail": False}
    was_on = gc.isenabled()
    try:
        for on in (True, False):
            gc.enable() if on else gc.disable()
            assert _run_one(("core_check", params, 0, 0))["core_vars"] == 0
            assert gc.isenabled() == on
            with pytest.raises(RuntimeError, match="task failed"):
                _run_one(("core_check", {**params, "fail": True}, 0, 0))
            assert gc.isenabled() == on
    finally:
        gc.enable() if was_on else gc.disable()
    assert seen == [True, True, False, False]


def test_summary_has_hash_and_echo(tmp_path):
    out = tmp_path / "c.csv"
    cfg = ExperimentConfig("collision_check", 3, 60, 100, 17, m_list=[80], out=str(out))
    _, _, summary = run_experiment(cfg)
    blob = json.loads((tmp_path / "c.csv.summary.json").read_text())
    assert blob["csv_sha256"] == summary["csv_sha256"]
    assert blob["config"]["master_seed"] == 17
    assert hashlib.sha256(out.read_bytes()).hexdigest() == summary["csv_sha256"]


def test_critical_set_mean_decays_with_size():
    """Rate-style decay gate: at fixed density below 1, the mean number of
    nonempty critical sets shrinks as the system grows (k=3: rate ~ 1/m).
    Sized so each repetition separates the two means by ~5 sigma."""
    from xorsatlab.gf2 import rank as gf2_rank

    wins = 0
    trials = 1500
    for rep in range(10):
        means = {}
        for n in (60, 120):
            m = int(0.9 * n)
            acc = 0
            for i in range(trials):
                inst = gen_constrained(3, m, n, Seed(9000 + rep, i))
                mat = BitMatrix.from_sparse_rows(n, inst.rows)
                acc += (1 << (m - gf2_rank(mat))) - 1
            means[n] = acc / trials
        wins += means[120] < means[60]
    assert wins >= 9


def test_config_file_workers_default(tmp_path):
    # a config file without workers runs with one worker
    from xorsatlab.cli import main as cli_main

    cfg_path = tmp_path / "cfg.json"
    out_csv = tmp_path / "o.csv"
    cfg_path.write_text(json.dumps({
        "kind": "collision_check", "k": 3, "n": 40, "trials": 30,
        "master_seed": 6, "m_list": [50], "out": str(out_csv),
    }))
    assert cli_main(["experiment", "--config", str(cfg_path)]) == 0
    summary = json.loads((tmp_path / "o.csv.summary.json").read_text())
    assert summary["config"]["workers"] == 1
