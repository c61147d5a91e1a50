import dataclasses
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from levysobolev import cli
from levysobolev.errors import ConfigError, IoError
from levysobolev.indices import CATALOG


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "levysobolev.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture()
def cgmy_cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "process.family": "cgmy",
        "process.C": 1.0, "process.G": 5.0, "process.M": 5.0, "process.Y": 1.5,
    }))
    return str(path)


def test_index_task(cgmy_cfg, tmp_path):
    out = tmp_path / "out"
    res = run_cli("index", "--config", cgmy_cfg, "--out", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads((out / "index.json").read_text())
    assert doc["result"]["sobolev_index"] == pytest.approx(1.5, abs=0.05)
    assert doc["result"]["beta"] == pytest.approx(1.5, abs=0.05)
    assert doc["result"]["verdicts"]["beta_ge_gamma"]["passed"]
    # one summary line per stage on stderr
    assert sum("index fit done" in line for line in res.stderr.splitlines()) == 1
    # plot CSV has the log-log columns
    lines = (out / "index.csv").read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "log_xi,log_abs_a,log_re_a"


def test_index_task_cgmy_near_y2(tmp_path):
    # CGMY is a Levy law for every Y < 2; Y = 1.99 once failed the
    # numerical Levy-condition probe
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"process.family": "cgmy", "process.C": 1.0,
                                "process.G": 5.0, "process.M": 5.0, "process.Y": 1.99}))
    out = tmp_path / "out"
    res = run_cli("index", "--config", str(path), "--out", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads((out / "index.json").read_text())
    assert doc["result"]["sobolev_index"] == pytest.approx(1.99, abs=0.01)
    assert doc["result"]["beta"] == pytest.approx(1.99, abs=0.01)


def test_index_csv_slope_is_one_for_cauchy(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"process.family": "cauchy", "process.c": 1.0}))
    out = tmp_path / "out"
    res = run_cli("index", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0
    rows = [ln.split(",") for ln in (out / "index.csv").read_text().splitlines()
            if not ln.startswith("#")][1:]
    data = np.array(rows, dtype=float)
    s_abs = np.polyfit(data[:, 0], data[:, 1], 1)[0]
    s_re = np.polyfit(data[:, 0], data[:, 2], 1)[0]
    assert s_abs == pytest.approx(1.0, abs=0.01)
    assert s_re == pytest.approx(1.0, abs=0.01)


def test_config_error_exit_2(cgmy_cfg, tmp_path):
    res = run_cli("index", "--config", cgmy_cfg, "--set", "process.Y=2.5",
                  "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "Y < 2" in res.stderr


@pytest.mark.parametrize("task,override", [
    ("price", "freq.Xi=big"),
    ("price", "process.c=abc"),
    ("price", "price.x_points=0,abc"),
    ("index", "grid.points_per_decade=x"),
    ("inequalities", "ineq.alpha=one"),
    ("inequalities", "ineq.alpha=3"),
    ("evolve", "evolve.T=0"),
    ("evolve", "evolve.scheme=foo"),
    ("density", "density.t=0"),
    ("price", "price.tau=-1"),
    ("price", "payoff.width=0"),
    ("price", "payoff.width=-1"),
    ("index", "process.C=5"),
    ("symbol-eval", "eval.u_min=0"),
    ("symbol-eval", "eval.u_min=-1"),
    ("symbol-eval", "eval.u_max=0"),
    ("price", "price.x_min=nan"),
    ("price", "price.x_points=1,nan"),
    ("density", "density.x_max=inf"),
    ("index", "index.tol=-1"),
])
def test_unparsable_value_exit_2(tmp_path, capsys, task, override):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"process.family": "cauchy", "process.c": 1.0}))
    code = cli.main([task, "--config", str(cfg), "--set", override,
                     "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and override.split("=")[0] in err


@pytest.mark.parametrize("task,override", [
    ("evolve", "evolve.K=2.7"),
    ("evolve", "freq.N=64.9"),
    ("price", "price.x_count=40.5"),
    ("price", "price.x_count=-3"),
    ("price", "price.x_count=0"),
    ("density", "density.x_count=-3"),
    ("symbol-eval", "eval.u_count=-3"),
    ("evolve", "evolve.K=0"),
    ("inequalities", "ineq.trials=0"),
    ("price", "payoff.order=-1"),
])
def test_bad_integer_value_exit_2(tmp_path, capsys, task, override):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"process.family": "cauchy", "process.c": 1.0,
                               "freq.N": 64, "freq.Xi": 16.0}))
    out = tmp_path / "o"
    code = cli.main([task, "--config", str(cfg), "--set", override, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and override.split("=")[0] in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("record,named", [
    ({"process.family": "cgmy", "process.C": 1.0, "process.G": 5.0, "process.M": 5.0},
     "process.Y"),
    ({"process.family": "tabulated", "process.path": "one-column.csv"}, "one-column.csv"),
    ({"process.family": "tabulated", "process.path": "empty.csv"}, "empty.csv"),
    ({"process.family": "tabulated", "process.path": "missing.csv"}, "missing.csv"),
])
def test_bad_process_record_exit_2(tmp_path, capsys, record, named):
    (tmp_path / "one-column.csv").write_text("-1.0\n-0.5\n0.5\n1.0\n")
    (tmp_path / "empty.csv").write_text("# x,f\n")
    record = {k: str(tmp_path / v) if k == "process.path" else v for k, v in record.items()}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(record))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["symbol-eval", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert not [w for w in caught if issubclass(w.category, UserWarning)]
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    if named in ("one-column.csv", "empty.csv"):
        assert "has no x,f rows" in err
    assert not out.exists() or not any(out.iterdir())


def test_integral_float_reads_as_integer(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"process.family": "cauchy", "process.c": 1.0,
                               "freq.N": 64.0, "freq.Xi": 16.0, "evolve.K": 4.0}))
    out = tmp_path / "o"
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "evolve.json").read_text())
    assert len(doc["result"]["times"]) == 5
    rows = [ln for ln in (out / "evolve.csv").read_text().splitlines()
            if not ln.startswith("#")][1:]
    assert len(rows) == 5 * 64


def test_missing_family_exit_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{}")
    res = run_cli("index", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2


def test_numerical_failure_exit_1(tmp_path):
    # VG has no Sobolev index: the inequalities task cannot pick alpha
    cfg = tmp_path / "vg.json"
    cfg.write_text(json.dumps({
        "process.family": "cgmy", "process.C": 1.0, "process.G": 5.0,
        "process.M": 5.0, "process.Y": 0.0,
    }))
    res = run_cli("inequalities", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 1
    assert "no Sobolev index" in res.stderr


def test_determinism_byte_identical(cgmy_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("index", "--config", cgmy_cfg, "--out", str(out1)).returncode == 0
    assert run_cli("index", "--config", cgmy_cfg, "--out", str(out2)).returncode == 0
    assert (out1 / "index.json").read_bytes() == (out2 / "index.json").read_bytes()
    assert (out1 / "index.csv").read_bytes() == (out2 / "index.csv").read_bytes()


def test_inequalities_task(cgmy_cfg, tmp_path):
    out = tmp_path / "out"
    res = run_cli("inequalities", "--config", cgmy_cfg, "--out", str(out),
                  "--seed", "3", "--set", "ineq.trials=50", "--set", "freq.N=256")
    assert res.returncode == 0, res.stderr
    doc = json.loads((out / "inequalities.json").read_text())
    assert doc["result"]["passed"]
    assert doc["result"]["seed"] == 3
    assert doc["result"]["garding_c2"] > 0


def test_inequalities_task_computes_no_jump_indices(cgmy_cfg, tmp_path, monkeypatch):
    from levysobolev import measures

    def refuse(density):
        raise AssertionError("inequalities computed a jump-activity index")

    monkeypatch.setattr(measures, "bg_index", refuse)
    monkeypatch.setattr(measures, "gamma_index", refuse)
    code = cli.main(["inequalities", "--config", cgmy_cfg, "--out", str(tmp_path / "o"),
                     "--set", "ineq.trials=20", "--set", "freq.N=256"])
    assert code == 0
    assert json.loads((tmp_path / "o" / "inequalities.json").read_text())["result"]["passed"]


def test_price_task_gaussian(tmp_path):
    cfg = tmp_path / "b.json"
    cfg.write_text(json.dumps({
        "process.family": "brownian", "process.sigma": 1.0, "process.b": 0.0,
        "price.x_points": "0.0,1.0", "price.tau": 1.0, "freq.N": 16384,
    }))
    out = tmp_path / "out"
    res = run_cli("price", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads((out / "price.json").read_text())
    # Gaussian payoff width 1 against heat flow: e^{-x^2/4}/sqrt(2)
    assert doc["result"]["value"][0] == pytest.approx(1 / np.sqrt(2), abs=1e-8)
    assert doc["result"]["value"][1] == pytest.approx(np.exp(-0.25) / np.sqrt(2), abs=1e-8)


def test_density_task_cauchy(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "process.family": "cauchy", "process.c": 1.0,
        "density.x_points": "0.0", "freq.N": 16384, "freq.Xi": 24.0,
    }))
    out = tmp_path / "out"
    res = run_cli("density", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads((out / "density.json").read_text())
    assert doc["result"]["value"][0] == pytest.approx(1 / np.pi, abs=1e-6)
    assert doc["result"]["mass"] == pytest.approx(1.0, abs=1e-4)
    lines = (out / "density.csv").read_text().splitlines()
    assert any(ln.startswith("# freq.Xi=") for ln in lines)  # defaults echoed


def test_evolve_task(tmp_path):
    cfg = tmp_path / "e.json"
    cfg.write_text(json.dumps({
        "process.family": "cgmy",
        "process.C": 1.0, "process.G": 5.0, "process.M": 5.0, "process.Y": 1.5,
        "evolve.T": 0.5, "evolve.K": 4, "evolve.scheme": "crank_nicolson",
        "freq.N": 64, "freq.Xi": 16.0,
    }))
    out = tmp_path / "out"
    res = run_cli("evolve", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads((out / "evolve.json").read_text())
    assert len(doc["result"]["times"]) == 5
    l2 = doc["result"]["l2_norms"]
    assert all(b <= a + 1e-12 for a, b in zip(l2, l2[1:]))


def test_symbol_eval_task(tmp_path):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"process.family": "cauchy", "process.c": 2.0,
                               "eval.u_count": 8}))
    out = tmp_path / "out"
    res = run_cli("symbol-eval", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads((out / "symbol-eval.json").read_text())
    us = doc["result"]["u"]
    res_a = doc["result"]["re_a"]
    k = us.index(0.0)
    assert res_a[k] == 0.0
    assert res_a[-1] == pytest.approx(2.0 * us[-1], rel=1e-12)


def test_catalog_task(tmp_path):
    out = tmp_path / "out"
    res = run_cli("catalog", "--out", str(out))
    assert res.returncode == 0
    doc = json.loads((out / "catalog.json").read_text())
    rows = [(row["family"], row["condition"], row["sobolev_index"])
            for row in doc["result"]["catalog"]]
    assert rows == [
        ("brownian", "positive definite sigma", "2"),
        ("nig", "alpha^2 > <beta, Delta beta>", "1"),
        ("cauchy", "c > 0", "1"),
        ("student_t", "f > 0", "1"),
        ("gh", "expansion C1/x^2 + C2/|x| + C3/x", "1"),
        ("cgmy", "0 < Y < 2", "Y"),
        ("vg", "CGMY with Y = 0", "none"),
        ("stable1d", "alpha != 1, strict (beta=0, tau=0 if alpha<1)", "alpha"),
        ("stable1d", "alpha = 1 strict (beta = 0)", "1"),
        ("stable1d", "alpha = 1, beta != 0", "none"),
    ]


def test_gh_family_via_density_route(tmp_path):
    cfg = tmp_path / "gh.json"
    cfg.write_text(json.dumps({
        "process.family": "gh", "process.C1": 0.5, "process.C2": 0.1,
        "process.C3": 0.05, "process.damping": 1.0,
        "grid.r_max": 1e5, "grid.points_per_decade": 8,
    }))
    out = tmp_path / "out"
    res = run_cli("index", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads((out / "index.json").read_text())
    assert doc["result"]["sobolev_index"] == pytest.approx(1.0, abs=0.05)


def test_tabulated_density_route(tmp_path):
    xs = np.concatenate([-np.geomspace(1e-7, 20, 60)[::-1],
                         np.geomspace(1e-7, 20, 60)])
    fs = np.exp(-2 * np.abs(xs)) / np.abs(xs) ** 2.2
    table = tmp_path / "dens.csv"
    np.savetxt(table, np.column_stack([xs, fs]), delimiter=",")
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps({
        "process.family": "tabulated", "process.path": str(table),
        "grid.r_max": 1e4, "grid.points_per_decade": 8,
    }))
    out = tmp_path / "out"
    res = run_cli("index", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads((out / "index.json").read_text())
    assert doc["result"]["sobolev_index"] == pytest.approx(1.2, abs=0.1)


def test_index_task_evaluates_density_symbol_once_per_radius(tmp_path, monkeypatch):
    points = []
    build = cli.build_symbol

    def counting_build(cfg):
        sym, rec = build(cfg)

        def fn(pts):
            points.append(len(pts))
            return sym.fn(pts)
        return dataclasses.replace(sym, fn=fn), rec

    monkeypatch.setattr(cli, "build_symbol", counting_build)
    cfg = {"task": "index", "process.family": "powerlaw", "process.coef": 1.0,
           "process.Y": 1.3, "grid.r_max": 1e4, "grid.points_per_decade": 8}
    assert cli.run(cfg, str(tmp_path)) == 0
    assert sum(points) == len(cli._grid_spec(cfg).radii()) == 17
    rows = [ln for ln in (tmp_path / "index.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert len(rows) == 1 + 17


def test_symbol_eval_calls_its_symbol_once(tmp_path, monkeypatch):
    calls = []
    make = cli.make_symbol

    def counting_make(params):
        sym = make(params)

        def fn(pts):
            calls.append(len(pts))
            return sym.fn(pts)
        return dataclasses.replace(sym, fn=fn)

    monkeypatch.setattr(cli, "make_symbol", counting_make)
    cfg = {"task": "symbol-eval", "process.family": "cgmy", "process.C": 1.0,
           "process.G": 5.0, "process.M": 5.0, "process.Y": 1.5}
    assert cli.run(cfg, str(tmp_path)) == 0
    assert calls == [2 * 64 + 1]


_CGMY = {"process.family": "cgmy", "process.C": 1.0, "process.G": 4.0, "process.M": 7.0}


@pytest.mark.parametrize("record", [
    {"process.family": "brownian", "process.sigma": 0.7, "process.b": 0.3},
    {"process.family": "nig", "process.alpha": 3.0, "process.beta": -1.2,
     "process.delta": 0.8, "process.mu": 0.1},
    {"process.family": "cauchy", "process.c": 2.0, "process.gamma": -0.4},
    {"process.family": "student_t", "process.f": 3.0, "process.mu": 0.2},
    {"process.family": "stable1d", "process.alpha": 0.7, "process.c": 1.3},
    {"process.family": "stable1d", "process.alpha": 1.0, "process.beta": 0.6},
    *({**_CGMY, "process.Y": Y} for Y in (0.0, 0.5, 1.0, 1.5)),
    {**_CGMY, "process.Y": 0.5, "process.zero_drift": True},
], ids=lambda rec: "-".join(str(v) for v in rec.values()))
def test_symbol_eval_matches_per_point_calls_bitwise(tmp_path, record):
    cfg = {"task": "symbol-eval", **record}
    assert cli.run(cfg, str(tmp_path)) == 0
    res = json.loads((tmp_path / "symbol-eval.json").read_text())["result"]
    sym, _ = cli.build_symbol(cfg)
    ref = [sym(float(u)) for u in res["u"]]
    assert [v.hex() for v in res["re_a"]] == [v.real.hex() for v in ref]
    assert [v.hex() for v in res["im_a"]] == [v.imag.hex() for v in ref]


@pytest.mark.parametrize("task", cli._TASKS)
def test_run_writes_the_task_json_and_csv(tmp_path, task):
    cfg = {"task": task, "process.family": "cauchy", "process.c": 1.0,
           "freq.N": 256, "freq.Xi": 32.0, "evolve.K": 2, "ineq.trials": 5,
           "grid.r_max": 1e4, "grid.points_per_decade": 4, "grid.directions": 4,
           "eval.u_count": 4, "price.x_count": 5, "density.x_count": 5}
    assert cli.run(cfg, str(tmp_path)) == 0
    expected = {f"{task}.json"} if task == "inequalities" else {f"{task}.json", f"{task}.csv"}
    assert {p.name for p in tmp_path.iterdir()} == expected
    doc = json.loads((tmp_path / f"{task}.json").read_text())
    assert doc["provenance"]["task"] == task


def test_emit_plot_data_refuses_empty(tmp_path):
    with pytest.raises(IoError, match="empty result"):
        cli.emit_plot_data([], ["a"], {}, str(tmp_path / "x.csv"))
    assert not (tmp_path / "x.csv").exists()


def test_emit_plot_data_matches_per_cell_format(tmp_path):
    rows = [(-0.0, float("nan"), float("inf"), 5e-324, 3, "nig"),
            (1.0, -float("inf"), 0.1 + 0.2, -1e300, -7, "alpha^2 > <beta, Delta beta>"),
            (2.5, 1e-17, 0.25, True, 0, "none")]
    rows += [(f, c, i, 1.0, 2, f) for f, c, i in CATALOG]
    rows += [(np.float64(0.5), np.float64(-0.0), np.float64(0.1) + np.float64(0.2),
              np.float64("nan"), np.float64(1e-300), "np")]
    cfg = {"process.family": "cauchy", "freq.Xi": 16.0}
    path = tmp_path / "p.csv"
    cli.emit_plot_data(rows, ["a", "b", "c", "d", "e", "f"], cfg, str(path))
    # the reference: every cell through _fmt, one at a time
    head = ["# levysobolev plot data"]
    head += [f"# {k}={cli._fmt(v)}" for k, v in cli._provenance(cfg).items()]
    body = [",".join(cli._fmt(v) for v in row) for row in rows]
    assert path.read_text() == "\n".join([*head, "a,b,c,d,e,f", *body]) + "\n"
    # numpy floats format as the Python floats of the same value
    assert body[-1] == "0.5,-0.0,0.30000000000000004,nan,1e-300,np"


def test_load_config_rejects_non_object(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1,2]")
    with pytest.raises(ConfigError):
        cli.load_config(str(p))


def test_overrides_parse_json_scalars():
    cfg = cli.apply_overrides({}, ["a=1.5", "b=true", "c=text"])
    assert cfg == {"a": 1.5, "b": True, "c": "text"}


def test_report_round_trip_through_json(cgmy_cfg, tmp_path):
    out = tmp_path / "out"
    run_cli("index", "--config", cgmy_cfg, "--out", str(out))
    from levysobolev.indices import IndexReport
    doc = json.loads((out / "index.json").read_text())
    rec = {k: v for k, v in doc["result"].items() if k != "family"}
    rep = IndexReport.from_record(rec)
    assert rep.to_record() == rec
