import json
import os
import runpy
import subprocess
import sys
from collections.abc import Mapping

import numpy as np
import pytest

from loopfield.harness import (load_config, ConfigError, run_experiment,
                               emit_fixtures, EXIT_OK, EXIT_FAIL, EXIT_CONFIG,
                               EXPERIMENTS, SCHEMA, CSV_COLUMNS)
from loopfield.harness import _chi2_clause, _chi2_sf, _ks_pvalue, _ks_statistic
from loopfield.cli import main as cli_main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
WORKLOADS_PY = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                            "workloads.py")


def _write(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def test_unknown_experiment_rejected(tmp_path):
    path = _write(tmp_path, "[experiment]\nname = frobnicate\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, "[experiment]\nname = degenerate\n"
                            "[grid]\nepsilon = 0.25\nbogus = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = _write(tmp_path, "[experiment]\nname = degenerate\n[nope]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_malformed_epsilons_exit_code(tmp_path):
    path = _write(tmp_path, "[experiment]\nname = converge-simple\n"
                            "[grid]\nepsilons = 0.25 banana\n")
    code = run_experiment(path, out_dir=str(tmp_path))
    assert code == EXIT_CONFIG
    assert not any(p.suffix == ".csv" for p in tmp_path.iterdir())


def test_converge_simple_loop_of_one_plaquette_loads(tmp_path):
    # t = eps^2 at eps 1/4: T = 1 there and 4 at eps 1/8, so the T >= 1 rule holds
    path = _write(tmp_path, "[experiment]\nname = converge-simple\n"
                            "[grid]\nepsilons = 0.25 0.125\n[geometry]\nt = 0.0625\n")
    _, cfg = load_config(path)
    assert cfg["geometry"]["t"] == 0.0625


def test_negative_epsilon_rejected(tmp_path):
    path = _write(tmp_path, "[experiment]\nname = converge-simple\n"
                            "[grid]\nepsilons = 0.25 -0.1\n")
    assert run_experiment(path, out_dir=str(tmp_path)) == EXIT_CONFIG


def test_degenerate_experiment_runs(tmp_path):
    path = _write(tmp_path, "[experiment]\nname = degenerate\n"
                            "[output]\npath = deg\n")
    code = run_experiment(path, out_dir=str(tmp_path))
    assert code == EXIT_OK
    assert (tmp_path / "deg.csv").exists()
    assert (tmp_path / "deg.json").exists()


def test_verify_discrete_and_negative_control(tmp_path):
    good = _write(tmp_path, "[experiment]\nname = verify-discrete\n"
                            "[grid]\nepsilons = 0.25\n[random]\ncount = 5\n"
                            "[output]\npath = good\n", "good.cfg")
    assert run_experiment(good, out_dir=str(tmp_path)) == EXIT_OK
    bad = _write(tmp_path, "[experiment]\nname = verify-discrete\n"
                           "[grid]\nepsilons = 0.25\n[random]\ncount = 5\n"
                           "[overrides]\ndeform-minus = 1.1\n"
                           "[tolerances]\nresidual = 1e-3\n"
                           "[output]\npath = bad\n", "bad.cfg")
    assert run_experiment(bad, out_dir=str(tmp_path)) == EXIT_FAIL


def test_csv_determinism(tmp_path):
    cfgp = _write(tmp_path, "[experiment]\nname = verify-discrete\n"
                            "[grid]\nepsilons = 0.25\n[random]\ncount = 3\n"
                            "[output]\npath = det\n")
    run_experiment(cfgp, out_dir=str(tmp_path / "a"))
    run_experiment(cfgp, out_dir=str(tmp_path / "b"))
    a = (tmp_path / "a" / "det.csv").read_bytes()
    b = (tmp_path / "b" / "det.csv").read_bytes()
    assert a == b


def test_realized_geometry_in_json(tmp_path):
    # far below the lattice scale the lobes are clamped to 2 plaquettes, and
    # the report says so; the CSV gains no column
    for name in ("converge-crossing", "verify-discrete"):
        cfgp = _write(tmp_path, f"[experiment]\nname = {name}\n"
                                "[grid]\nepsilons = 0.25 0.125\n"
                                "[geometry]\nt2 = 1e-4\nt4 = 1e-4\n"
                                "[output]\npath = cross\n")
        run_experiment(cfgp, out_dir=str(tmp_path))
        report = json.loads((tmp_path / "cross.json").read_text())
        assert [g["epsilon"] for g in report["geometry"]] == [0.25, 0.125]
        for g in report["geometry"]:
            assert sorted(g["faces"]) == [[2, -1], [2, 1]]
            assert g["areas"] == [2 * g["epsilon"]**2] * 2
        header = (tmp_path / "cross.csv").read_text().splitlines()[0]
        assert header.split(",") == list(CSV_COLUMNS)

    # the simple loop's area is rounded to whole plaquettes
    cfgp = _write(tmp_path, "[experiment]\nname = converge-simple\n"
                            "[grid]\nepsilons = 0.25 0.125\n"
                            "[geometry]\nt = 0.3\n[groups]\nlist = U1\n"
                            "[output]\npath = simple\n")
    run_experiment(cfgp, out_dir=str(tmp_path))
    report = json.loads((tmp_path / "simple.json").read_text())
    assert report["geometry"] == [
        {"group": "U(1)", "epsilon": 0.25, "T": 5, "area": 0.3125},
        {"group": "U(1)", "epsilon": 0.125, "T": 19, "area": 0.296875}]
    header = (tmp_path / "simple.csv").read_text().splitlines()[0]
    assert header.split(",") == list(CSV_COLUMNS)

    cfgp = _write(tmp_path, "[experiment]\nname = converge-merger\n"
                            "[grid]\nepsilons = 0.25 0.125\n"
                            "[output]\npath = merge\n")
    run_experiment(cfgp, out_dir=str(tmp_path))
    report = json.loads((tmp_path / "merge.json").read_text())
    assert [g["epsilon"] for g in report["geometry"]] == [0.25, 0.125]
    for g in report["geometry"]:
        # two squares of side 1.5 / eps bonds: winding 1, 1 and 2 on the overlap
        assert sorted(n for _, n in g["faces"]) == [1, 1, 2]
        assert sum(p * n for p, n in g["faces"]) == 2 * round(1.5 / g["epsilon"])**2
        assert g["areas"] == [p * g["epsilon"]**2 for p, _ in g["faces"]]


def test_harness_import_leaves_ndimage_unloaded(tmp_path):
    # build_graph labels faces with NumPy alone; scipy.ndimage would add its
    # load time to every command-line call and every exact experiment
    import loopfield
    src = os.path.dirname(os.path.dirname(loopfield.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    path = _write(tmp_path, "[experiment]\nname = verify-discrete\n"
                            + _SMALL["verify-discrete"])
    code = ("import sys\nimport loopfield.harness\n"
            "print('scipy.ndimage' in sys.modules)\n"
            "code = loopfield.harness.run_experiment("
            f"{path!r}, out_dir={str(tmp_path)!r})\n"
            "print(code, 'scipy.ndimage' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "False"
    assert lines[-1] == "0 False"


def test_scipy_submodules_load_only_where_a_run_needs_them(tmp_path):
    # exp_map has closed forms for every group the experiments use, so no
    # run loads scipy.linalg, which would be about half of the harness's
    # import time; scipy.special is loaded by sample-diagnostics' p-values
    # alone, and scipy.stats by nothing
    import loopfield
    src = os.path.dirname(os.path.dirname(loopfield.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    paths = [_write(tmp_path, f"[experiment]\nname = {name}\n" + _SMALL[name],
                    name=f"{name}.cfg")
             for name in ("gauss-lemma", "verify-discrete", "sample-diagnostics")]
    code = ("import sys\nimport loopfield.harness\n"
            "def loaded():\n"
            "    print(*(m in sys.modules for m in "
            "('scipy.linalg', 'scipy.special', 'scipy.stats')))\n"
            "loaded()\n"
            f"for path in {paths!r}:\n"
            f"    loopfield.harness.run_experiment(path, out_dir={str(tmp_path)!r})\n"
            "    loaded()\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    lines = [line for line in out.stdout.splitlines()
             if line.startswith(("True", "False"))]
    assert lines == ["False False False", "False False False", "False False False",
                     "False True False"]


def test_sample_diagnostics_leaves_scipy_stats_unloaded(tmp_path):
    # the chain-statistics p-values come from scipy.special; scipy.stats
    # would add its hundreds of modules to every run
    import loopfield
    src = os.path.dirname(os.path.dirname(loopfield.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    path = _write(tmp_path, "[experiment]\nname = sample-diagnostics\n"
                            + _SMALL["sample-diagnostics"])
    code = ("import sys\nfrom loopfield.harness import run_experiment\n"
            f"run_experiment({path!r}, out_dir={str(tmp_path)!r})\n"
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip().splitlines()[-1] == "False"


def test_chi2_sf_equals_scipy_stats():
    from scipy import stats
    xs = np.linspace(0.0, 200.0, 801)
    for dof in range(1, 41):
        ref = stats.chi2.sf(xs, dof)
        ours = np.array([_chi2_sf(x, dof) for x in xs])
        assert np.array_equal(ours, ref), dof


def test_ks_statistic_equals_scipy_stats():
    from scipy import stats
    rng = np.random.default_rng(11)
    for n in (50, 1000, 10_000):
        for _ in range(5):
            u = rng.random(n)
            assert _ks_statistic(u) == stats.kstest(u, "uniform").statistic, n


def test_ks_pvalue_is_exact_in_the_tail_and_an_upper_bound_elsewhere():
    # scipy's exact kstwo.sf is 2 smirnov(n, d) wherever n d^2 >= 2.2; the
    # grid starts at d = 0.006, above kstwo's slow small-d branch, and is
    # coarse because smirnov evaluates an exact sum of up to n terms
    from scipy import stats
    n = 10_000
    ds = np.linspace(0.006, 0.036, 121)
    exact = stats.kstwo.sf(ds, n)
    ours = np.array([_ks_pvalue(n, d) for d in ds])
    tail = exact < 0.02
    assert 0 < tail.sum() < ds.size
    assert np.array_equal(ours[tail], exact[tail])
    assert np.all(ours[~tail] >= exact[~tail])
    # the 1% gate decides alike everywhere on the grid
    assert np.array_equal(ours > 0.01, exact > 0.01)


def test_chi2_clause_without_degrees_of_freedom_fails():
    # no bin pair reached the count threshold: no evidence, so no PASS
    clause = _chi2_clause("detailed balance", 0.0, 0,
                          "no bin pair with >= 16 transitions")
    assert not clause.passed
    assert "no bin pair with >= 16 transitions" in clause.line()
    assert _chi2_clause("detailed balance", 0.0, 1, "unused").passed


def test_fixture_generation(tmp_path):
    written = emit_fixtures("all", out_dir=str(tmp_path))
    assert len(written) == 3
    # every regenerated file equals the committed golden fixture
    for path in written:
        name = os.path.basename(path)
        with open(os.path.join(FIXTURE_DIR, name), "rb") as golden:
            assert (tmp_path / name).read_bytes() == golden.read(), name
    # char table round-trips through the documented text format bit-exactly
    from loopfield.action import build_char_table, ActionParams
    from loopfield.groups import GroupSpec
    from oracles import load_char_table
    loaded = load_char_table(tmp_path / "char_table_u1_eps0.5.txt",
                             GroupSpec("U", 1), 0.5)
    rebuilt = build_char_table(ActionParams(GroupSpec("U", 1), 0.5),
                               max_casimir=64.0)
    assert loaded.records == rebuilt.records


def test_cli_entry_points(tmp_path):
    assert cli_main(["fixtures", "graphs", "--out-dir", str(tmp_path)]) == 0
    cfgp = _write(tmp_path, "[experiment]\nname = degenerate\n")
    assert cli_main(["run", cfgp, "--out-dir", str(tmp_path)]) == 0


def test_python_m_loopfield_runs_an_experiment(tmp_path):
    # the package runs as a module from a source checkout, with no install
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    cfgp = _write(tmp_path, "[experiment]\nname = degenerate\n[output]\npath = deg\n")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run([sys.executable, "-m", "loopfield", "run", cfgp,
                           "--out-dir", str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "clauses passed" in proc.stdout
    assert (tmp_path / "deg.csv").exists()


def test_committed_configs_parse(tmp_path):
    """The committed configs and every config the benchmark generates."""
    paths = [os.path.join(CONFIG_DIR, name) for name in os.listdir(CONFIG_DIR)]
    assert len(paths) == 9
    # run_path compiles the source without writing bytecode next to it
    workloads = runpy.run_path(WORKLOADS_PY)
    for workload in workloads["WORKLOADS"]:
        for seed in range(1, 11):
            for stem, text in workloads["configs"](workload, seed):
                path = tmp_path / f"{workload}-{seed}-{stem}.cfg"
                path.write_text(text)
                paths.append(str(path))
    for path in paths:
        load_config(path)


_OTHERS = sorted(set(SCHEMA) - {"verify-discrete"})


@pytest.mark.parametrize("name,body", [
    # malformed or out-of-range values
    ("verify-discrete", "[overrides]\nbase = banana\n"),
    ("converge-unified", "[mc]\nsweeps = 1.5\n"),
    ("sample-diagnostics", "[mc]\nsweeps = 2\nthin = 3\n"),
    ("degenerate", "[grid]\nepsilon = -1\n"),
    ("converge-simple", "[grid]\nepsilons = nan\n"),
    ("converge-merger", "[grid]\nepsilons = 0.25 inf\n"),
    ("converge-simple", "[grid]\nepsilons = 0.25\n"),
    ("gauss-lemma", "[grid]\nepsilons_j1 = 0.4 0.4\n"),
    ("verify-discrete", "[random]\ncount = abc\n"),
    ("verify-discrete", "[random]\ncount = 0\n"),
    ("converge-crossing", "[tolerances]\nidentity = x\n"),
    ("converge-simple", "[groups]\nlist = SU9\n"),
    ("converge-unified", "[groups]\nlist = SU1\n"),
    ("converge-crossing", "[triples]\nmax_triples = 0\n"),
    ("converge-simple", "[geometry]\nt = -1\n"),
    # T = round(t/eps^2) = 0 plaquettes at eps 1/4 and 1/8; and at eps 1/4
    # alone for t = eps^2/2, since round(0.5) is 0
    ("converge-simple", "[grid]\nepsilons = 0.25 0.125\n[geometry]\nt = 0.001\n"),
    ("converge-simple", "[grid]\nepsilons = 0.25 0.125\n[geometry]\nt = 0.03125\n"),
    ("converge-merger", "[geometry]\nside = 0\n"),
    ("converge-merger", "[geometry]\nside = 0.5\noverlap = 0.75\n"),
    ("converge-crossing", "[combos]\nb = 0.5 0.5\na = 1 2\n"),
    ("converge-crossing", "[combos]\nb = 0.5 0.6\na = 0.2 0.2 0.2 0.2 0.2\n"),
    # keys that would be accepted and then ignored
    ("degenerate", "[output]\nformats = csv\n"),
    ("converge-crossing", "[geometry]\nfamily = coil\n"),
    ("degenerate", "[tolerances]\nslope_lo = 3\n"),
    ("verify-discrete", "[overrides]\ntwist-neg = 2\n"),
    ("converge-crossing", "[combos]\nb = 0.7 0.3\n"),
    ("converge-crossing", "[combos]\nb = 0.7 0.3\na = 0.2 0.2 0.2 0.2 0.2\n"
                          "b2 = 0.7 0.3\n"),
] + [(name, "[overrides]\nbase = 1.0\n") for name in _OTHERS])
def test_bad_config_exits_2(tmp_path, name, body):
    path = _write(tmp_path, f"[experiment]\nname = {name}\n" + body)
    assert run_experiment(path, out_dir=str(tmp_path)) == EXIT_CONFIG
    assert not list(tmp_path.glob("*.csv"))


class _Reads(Mapping):
    """A config section that records the keys read from it."""

    def __init__(self, section, values, seen):
        self.section, self.values, self.seen = section, values, seen

    def __getitem__(self, key):
        self.seen.add((self.section, key))
        return self.values[key]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


_MC_SMALL = "[mc]\nsweeps = 4\nburn_in = 2\nthin = 2\nchains = 2\n"
_SMALL = {
    # seed 3 draws random loops whose equations have split-neg terms
    "verify-discrete": "[grid]\nepsilons = 0.25\n[random]\nseed = 3\n",
    "converge-simple": "[grid]\nepsilons = 0.25 0.125\n[groups]\nlist = U1\n",
    "converge-crossing": "[grid]\nepsilons = 0.25 0.125\n[triples]\nmax_triples = 1\n"
                         "[combos]\nb = 0.7 0.3\na = 0.2 0.2 0.1 0.3 0.2\n"
                         "b2 = 1.5 -0.5\na2 = 0.4 0.1 0.2 0.1 0.2\n",
    "converge-merger": "[grid]\nepsilons = 0.25 0.125\n",
    "converge-unified": "[groups]\nlist = SU2\n" + _MC_SMALL,
    "gauss-lemma": "[grid]\nepsilons = 0.4 0.28\nepsilons_j1 = 0.4 0.2\n",
    "degenerate": "",
    "sample-diagnostics": "[grid]\nepsilons = 1.0\n" + _MC_SMALL,
}


@pytest.mark.parametrize("name", sorted(SCHEMA))
def test_every_schema_key_is_read(tmp_path, name):
    _, cfg = load_config(_write(tmp_path, f"[experiment]\nname = {name}\n"
                                          + _SMALL[name]))
    seen = set()
    EXPERIMENTS[name]({s: _Reads(s, v, seen) for s, v in cfg.items()})
    # run_experiment itself reads [output] path
    assert seen == set(SCHEMA[name]) - {("output", "path")}


def test_every_report_carries_provenance(tmp_path, monkeypatch):
    # each experiment's JSON names the versions, the config bytes, the seeds
    # and the thread settings it ran with, and times its stages; the CSV
    # columns are unchanged
    import hashlib
    import numpy
    import scipy
    import loopfield
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    for name in sorted(SCHEMA):
        path = _write(tmp_path, f"[experiment]\nname = {name}\n" + _SMALL[name]
                      + "[output]\npath = out\n", name=f"{name}.cfg")
        assert run_experiment(path, out_dir=str(tmp_path / name)) in (EXIT_OK, EXIT_FAIL)
        payload = json.loads((tmp_path / name / "out.json").read_text())
        timings = payload["timings"]
        stages = timings.pop("stages_s", None)
        eps_s = timings.pop("eps_s", None)
        assert set(timings) == {"load_config_s", "experiment_s"}
        assert all(t >= 0.0 for t in timings.values())
        assert timings["experiment_s"] == payload["runtime_seconds"]
        if name == "sample-diagnostics":
            assert set(stages) == {"plaquette_chains", "equations", "gauge",
                                   "chain_statistics", "volume_doubling"}
            assert all(t >= 0.0 for t in stages.values())
            assert sum(stages.values()) <= timings["experiment_s"]
        else:
            assert stages is None
        if name in ("converge-simple", "converge-crossing", "converge-merger"):
            # the seconds of each eps row, in the order of the grid
            assert len(eps_s) == len(load_config(path)[1]["grid"]["epsilons"])
            assert all(t > 0.0 for t in eps_s)
            assert sum(eps_s) <= timings["experiment_s"]
        else:
            assert eps_s is None
        prov = payload["provenance"]
        assert prov["config_sha256"] == hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert (prov["loopfield"], prov["numpy"], prov["scipy"]) == (
            loopfield.__version__, numpy.__version__, scipy.__version__)
        assert prov["python"] == "%d.%d.%d" % sys.version_info[:3]
        _, cfg = load_config(path)
        assert prov["seeds"] == {s: cfg[s]["seed"] if s in cfg else None
                                 for s in ("mc", "random")}
        assert prov["threads"]["OMP_NUM_THREADS"] == "1"
        assert prov["threads"]["MKL_NUM_THREADS"] is None
        assert set(prov["threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS"}
        header = (tmp_path / name / "out.csv").read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)


DIAGNOSTIC_KEYS = {"group", "epsilon", "box", "algorithm", "proposal_scale",
                   "acceptance_burn_in", "acceptance_measure", "sweeps",
                   "reunitarize_drift", "sample_s", "measure_s", "tau_int"}


@pytest.mark.parametrize("name,extra,n_chains", [
    ("converge-unified", "[groups]\nlist = SU2\n", 2),
    ("sample-diagnostics", "", 7),
], ids=["converge-unified", "sample-diagnostics"])
def test_mc_reports_carry_chain_diagnostics(tmp_path, name, extra, n_chains):
    # one entry per chain run, in the JSON only; the CSV columns are unchanged
    path = _write(tmp_path, f"[experiment]\nname = {name}\n[grid]\nepsilons = 0.5\n"
                            f"{extra}[mc]\nsweeps = 8\nburn_in = 20\nthin = 2\n"
                            "chains = 2\n[output]\npath = mc\n")
    assert run_experiment(path, out_dir=str(tmp_path)) in (EXIT_OK, EXIT_FAIL)
    payload = json.loads((tmp_path / "mc.json").read_text())
    diagnostics = payload["diagnostics"]
    assert len(diagnostics) == n_chains
    for entry in diagnostics:
        assert set(entry) == DIAGNOSTIC_KEYS
        assert entry["tau_int"] and all(t >= 1.0 for t in entry["tau_int"].values())
        if entry["algorithm"] == "metropolis":
            assert 0.0 <= entry["acceptance_measure"] <= 1.0
        assert entry["sample_s"] > 0.0 and entry["measure_s"] > 0.0
    header = (tmp_path / "mc.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_fd_gap_z_pairs_the_two_streams(tmp_path):
    # the fd stream and the unified stream share the [mc] seed and the row
    # layout, so the gap's z-score comes from the row-by-row paired series
    from loopfield.equations import (finite_difference_alternating,
                                     unified_equation_reports)
    from loopfield.groups import GroupSpec
    from loopfield.sampler import MCSchedule, make_estimate
    path = _write(tmp_path, "[experiment]\nname = converge-unified\n"
                            "[grid]\nepsilons = 0.5\n[geometry]\nt2 = 1.0\nt4 = 1.0\n"
                            "[groups]\nlist = SU2\n[mc]\nsweeps = 48\nburn_in = 20\n"
                            "thin = 2\nchains = 3\nseed = 11\n[output]\npath = mc\n")
    assert run_experiment(path, out_dir=str(tmp_path)) in (EXIT_OK, EXIT_FAIL)
    row, = [r for r in json.loads((tmp_path / "mc.json").read_text())["rows"]
            if r["term"] == "fd-alternating-sum"]
    su2, sched = GroupSpec("SU", 2), MCSchedule(48, 20, 2, 3, 11)
    out = unified_equation_reports(su2, 0.5, sched, t2=1.0, t4=1.0)
    fd = finite_difference_alternating(su2, 0.5, sched, t2=1.0, t4=1.0)
    assert fd["series"].shape == out["rhs_series"].shape == (24, 3)
    paired = make_estimate(fd["series"] - out["rhs_series"])
    assert row["gap_sigma"] == paired.sigma
    assert row["gap_z"] == paired.mean / paired.sigma
    assert row["gap"] == pytest.approx(abs(paired.mean), rel=1e-12)
