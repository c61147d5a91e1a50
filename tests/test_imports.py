"""What `import levysobolev` and single CLI tasks load.

`import levysobolev` loads no numpy, so that `levysobolev.cli` can default
OpenBLAS to one thread before numpy starts its pool.

No task on the CGMY, NIG and Cauchy laws of the cli-batch benchmark, and no
price with the Hermite payoff, loads scipy.integrate or scipy.special.  Both
are imported only on first use: scipy.integrate by an explicit
`measures.quad` call, scipy.special by a Student-t symbol.  So each check
runs in a fresh interpreter (pytest itself imports scipy.integrate for its
warning filter)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HEAVY = ("scipy.integrate", "scipy.special")


def run_fresh(code: str, env=None) -> str:
    """The standard output of `code` run in a new interpreter."""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return res.stdout


def loaded_after(code: str, modules=HEAVY) -> list:
    """The `modules` in sys.modules after running `code` in a new interpreter."""
    return run_fresh(f"{code}\nimport sys\nprint(*[m for m in {modules!r} if m in sys.modules])"
                     ).split()


def test_import_loads_neither_integrate_nor_special():
    assert loaded_after("import levysobolev, levysobolev.cli") == []


def test_measures_names_still_import_from_the_package():
    # measures itself loads neither: its quad imports scipy.integrate on the call
    code = ("from levysobolev import LevyDensity, bg_index, measures\n"
            "assert LevyDensity is measures.LevyDensity and bg_index is measures.bg_index")
    assert loaded_after(code) == []


def test_import_loads_no_numpy():
    # so that the CLI module can set up the environment before numpy loads
    assert loaded_after("import levysobolev", ("numpy",)) == []


def test_every_lazy_name_resolves_in_its_module():
    run_fresh("import importlib, levysobolev\n"
              "for name, module in levysobolev._LAZY.items():\n"
              "    mod = importlib.import_module(f'levysobolev.{module}')\n"
              "    assert getattr(levysobolev, name) is getattr(mod, name), name\n"
              "assert set(levysobolev._LAZY) <= set(dir(levysobolev))\n"
              "assert set(levysobolev.__all__) <= set(dir(levysobolev))")


@pytest.mark.parametrize("given, seen", [(None, "1"), ("2", "2")])
def test_cli_import_pins_one_blas_thread_unless_set(given, seen):
    # the environment is built here: once this process imports
    # levysobolev.cli, its own children inherit OPENBLAS_NUM_THREADS=1
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    out = run_fresh("import os, levysobolev.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])", env)
    assert out.strip() == seen


def run_task(tmp_path, task: str, cfg: dict) -> list:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"freq.N": 64, **cfg}))
    argv = [task, "--config", str(path), "--out", str(tmp_path / "out")]
    return loaded_after(f"from levysobolev import cli\nassert cli.main({argv!r}) == 0")


CAUCHY = {"process.family": "cauchy", "process.c": 1.0}
NIG = {"process.family": "nig", "process.alpha": 10.0, "process.beta": 2.0}


@pytest.mark.parametrize("cfg", [CAUCHY, NIG])
def test_price_loads_neither(tmp_path, cfg):
    assert run_task(tmp_path, "price", cfg) == []


def test_hermite_price_loads_neither(tmp_path):
    # H_n by its recurrence in numpy, not scipy.special.eval_hermite
    cfg = {**CAUCHY, "payoff.kind": "hermite", "payoff.order": 3}
    assert run_task(tmp_path, "price", cfg) == []


CGMY = {"process.family": "cgmy", "process.C": 1.0, "process.G": 5.0,
        "process.M": 5.0, "process.Y": 1.5}


@pytest.mark.parametrize("task", ["catalog", "density", "evolve", "index", "inequalities",
                                  "price", "symbol-eval"])
def test_cgmy_closed_form_task_loads_neither(tmp_path, task):
    # index: beta and gamma integrate the CGMY density by Gauss-Kronrod rules
    assert run_task(tmp_path, task, CGMY) == []


def test_nig_index_loads_neither(tmp_path):
    # beta and gamma integrate the NIG density by the numpy rules, its K_1 is
    # measures.k1e
    assert run_task(tmp_path, "index", NIG) == []


# the other tasks of the cli-batch mix; price and NIG's index are gated above
@pytest.mark.parametrize("task, cfg", [
    pytest.param(task, cfg, id=f"{cfg['process.family']}-{task}")
    for cfg in (NIG, CAUCHY)
    for task in ("catalog", "density", "evolve", "index", "inequalities", "symbol-eval")
    if (task, cfg) != ("index", NIG)])
def test_cli_batch_task_loads_neither(tmp_path, task, cfg):
    assert run_task(tmp_path, task, cfg) == []


@pytest.mark.parametrize("family", ["gh", "tabulated"])
def test_density_route_symbol_eval_loads_neither(tmp_path, family):
    # the quadrature symbol runs on numpy rules alone, Gauss-Kronrod and
    # Filon panels, so neither module is loaded
    if family == "gh":
        cfg = {"process.family": "gh", "process.C1": 0.5, "process.C2": 0.1,
               "process.C3": 0.05, "process.damping": 1.0}
    else:
        xs = np.geomspace(1e-7, 20.0, 60)
        xs = np.concatenate([-xs[::-1], xs])
        table = tmp_path / "dens.csv"
        np.savetxt(table, np.column_stack([xs, np.exp(-2 * np.abs(xs)) / np.abs(xs) ** 2.2]),
                   delimiter=",")
        cfg = {"process.family": "tabulated", "process.path": str(table)}
    assert run_task(tmp_path, "symbol-eval", cfg) == []


def test_smoothness_moments_load_no_scipy():
    # the moments run on the array rules of measures and the tail
    # certificate on an elementary bound of the incomplete gamma
    code = ("from levysobolev import indices, symbols\n"
            "sym = symbols.make_symbol(symbols.CGMYParams(1.0, 5.0, 5.0, 1.5))\n"
            "assert len(indices.smoothness_moments(sym, 1.0, 2)) == 3")
    assert loaded_after(code) == []
