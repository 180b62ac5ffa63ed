"""End-to-end checks of the command line driver, in process via main()."""

import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest

from frontlab import cli, gumbel_exact, zchain

GUMBEL = '{"type":"gumbel"}'
BERN = '{"type":"bernoulli","p":0.5}'
LATTICE = '{"type": "lattice", "k": 0, "probs": [[0, 0.5], [-1, 0.3], [-3, 0.2]]}'


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("FRONTLAB_SEED", raising=False)


def run(argv, capsys):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def named(text):
    """name,value[,std_err] table as a dict of floats where possible."""
    _, rows = parse_csv(text)
    return {r[0]: r[1] for r in rows}


# ---------------------------------------------------------------------------
# gumbel


def test_gumbel_reference_values(capsys):
    code, out, _ = run(["gumbel", "--N", "10", "--samples", "2000"], capsys)
    assert code == 0
    table = named(out)
    assert float(table["b_N"]) == pytest.approx(18.229239584193905, rel=1e-9)
    assert float(table["constant_C"]) == pytest.approx(0.42278433509846713,
                                                       abs=1e-9)
    assert "v_mc" in table and "sigma2_mc" in table


# ---------------------------------------------------------------------------
# speed


def test_speed_trajectory_table(capsys):
    code, out, _ = run(["speed", "--spec", BERN, "--N", "3",
                        "--horizon", "50", "--emit", "csv"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "phi", "max", "min", "gap"]
    assert len(rows) == 51
    assert [int(r[0]) for r in rows] == list(range(51))


def test_speed_batch_json(capsys):
    code, out, _ = run(["speed", "--spec", BERN, "--N", "1",
                        "--horizon", "20000"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["v_hat"] == pytest.approx(0.5, abs=0.03)
    assert obj["std_err"] > 0 and obj["n_blocks"] > 1
    assert obj["manifest"]["seed"] == 1729


def test_speed_renewal_method(capsys):
    code, out, _ = run(["speed", "--spec", BERN, "--N", "2",
                        "--method", "renewal", "--renewals", "100"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["v_hat"] == pytest.approx(6 / 7, abs=0.05)
    assert obj["n_blocks"] == 100


# ---------------------------------------------------------------------------
# zchain


def test_zchain_speed_row(capsys):
    code, out, _ = run(["zchain", "--dist", "bernoulli", "--N", "2",
                        "--q", "0.5", "--steps", "5000"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "q", "v_exact", "v_sim", "se",
                      "ratio_to_asymptotic"]
    row = dict(zip(header, rows[0]))
    assert float(row["v_exact"]) == pytest.approx(6 / 7, rel=1e-12)
    assert abs(float(row["v_sim"]) - 6 / 7) < 3 * float(row["se"])


def test_zchain_accepts_fraction_q(capsys):
    code, out, _ = run(["zchain", "--dist", "bernoulli", "--N", "2",
                        "--q", "1/2", "--steps", "1000", "--emit", "json"],
                       capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["q"] == 0.5


def test_zchain_hitting_hand_values(capsys):
    code, out, _ = run(["zchain", "--dist", "bernoulli", "--N", "2",
                        "--q", "1/2", "--mode", "precise",
                        "--report", "hitting"], capsys)
    assert code == 0
    table = named(out)
    assert float(table["prob_bottom_first"]) == 0.25
    assert float(table["mean_time_bottom_first"]) == 2.5
    assert float(table["mean_time_top_first"]) == 1.5
    assert float(table["mean_time_bottom"]) == 7.0
    assert float(table["identity_residual"]) == 0.0
    assert float(table["closed_form_at_1"]) == 0.0625
    assert float(table["ratio_to_gap_asymptotic"]) == 1.0
    assert table["exact"] == "1"


@pytest.mark.parametrize("emit", ["csv", "json"])
def test_zchain_point_mass_leaves_ratio_empty(emit, capsys):
    # q = 0: the top atom carries all the mass, the speed is 0 exactly and
    # the gap scale q^(N^2) 2^N is 0, so there is no ratio to report
    point = '{"type":"lattice","k":0,"probs":[[0,1.0]]}'
    code, out, _ = run(["zchain", "--dist", "lattice", "--N", "3",
                        "--probs", point, "--steps", "200", "--emit", emit],
                       capsys)
    assert code == 0
    if emit == "json":
        row = json.loads(out)
        assert row["ratio_to_asymptotic"] is None
    else:
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["ratio_to_asymptotic"] == ""
    assert float(row["q"]) == 0.0
    assert float(row["v_exact"]) == 0.0


def test_zchain_ladder_report(capsys):
    code, out, _ = run(["zchain", "--dist", "lattice", "--N", "3",
                        "--probs", LATTICE, "--report", "ladder"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["depth", "prob", "bound"]
    for r in rows:
        assert float(r[1]) <= float(r[2]) + 1e-15


def test_zchain_lattice_sim_runs_on_the_widened_window(monkeypatch, capsys):
    # lattice_speed widens window 2 to 8 for this law; a simulation left on
    # window 2 runs the truncated chain (speed -0.07836), and at this seed
    # read 6.7 SE off the exact -0.08039
    probs = '{"type":"lattice","k":0,"probs":[[0,0.4],[-1,0.3],[-3,0.3]]}'
    windows = []
    sim = zchain.lattice_chain_sim

    def spy(*args, window, **kw):
        windows.append(window)
        return sim(*args, window=window, **kw)

    monkeypatch.setattr(zchain, "lattice_chain_sim", spy)
    code, out, _ = run(["zchain", "--dist", "lattice", "--N", "3",
                        "--probs", probs, "--window", "2",
                        "--steps", "200000", "--emit", "json"], capsys)
    assert code == 0
    assert windows == [8]
    row = json.loads(out)
    assert abs(row["v_sim"] - row["v_exact"]) <= 4.0 * row["se"]


def test_zchain_validation_errors(capsys):
    for argv in (
        ["zchain", "--dist", "bernoulli", "--N", "2"],               # no --q
        ["zchain", "--dist", "lattice", "--N", "2", "--q", "0.5"],   # no probs
        ["zchain", "--dist", "lattice", "--N", "2", "--probs", LATTICE,
         "--mode", "precise"],
        ["zchain", "--dist", "bernoulli", "--N", "2", "--q", "0.5",
         "--report", "ladder"],
        ["zchain", "--dist", "bernoulli", "--N", "2", "--q", "1.5"],
    ):
        code, _, err = run(argv, capsys)
        assert code == 2, argv
        assert err.startswith("frontlab:")


# ---------------------------------------------------------------------------
# profile


def test_profile_default_table(capsys):
    code, out, _ = run(["profile", "--spec", GUMBEL, "--N", "500",
                        "--t", "2", "--grid=-4:8:0.5"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "U_N", "u", "diff"]
    assert len(rows) == 25
    for r in rows:
        assert abs(float(r[3])) <= 1.0


def test_profile_ks_json(capsys):
    code, out, _ = run(["profile", "--spec", GUMBEL, "--N", "2000",
                        "--t", "2", "--test", "ks"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert 0.0 < obj["p_value"] <= 1.0
    assert obj["ks"] > 0.0


def test_profile_marginal_json(capsys):
    code, out, _ = run(["profile", "--spec", GUMBEL, "--N", "100", "--t", "2",
                        "--test", "marginal", "--k", "2",
                        "--replicas", "40"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["ks"]) == 2
    assert 0.0 <= obj["max_corr"] <= 1.0


@pytest.mark.parametrize("spec", ['{"type":"gumbel","a":1.0}',
                                  '{"type":"gumbel","lambda":2.0}'])
def test_profile_marginal_targets_the_laws_gumbel(spec, capsys):
    # the centered coordinates are Gumbel(loc, 1/rate) of the noise law
    # itself; against the standard Gumbel, loc = 1 reads KS ~ 0.35
    code, out, _ = run(["profile", "--spec", spec, "--N", "100", "--t", "2",
                        "--test", "marginal", "--k", "2",
                        "--replicas", "100"], capsys)
    assert code == 0
    band = math.sqrt(math.log(2 / 1e-3) / (2 * 100))
    assert max(json.loads(out)["ks"]) < band


def test_profile_fluct_json(capsys):
    code, out, _ = run(["profile", "--spec", GUMBEL, "--N", "100", "--t", "2",
                        "--test", "fluct", "--replicas", "30",
                        "--ref-size", "1000"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["stat_quantiles"]) == 9
    assert obj["levels"][4] == pytest.approx(0.5)
    # the exact reference: |u'(0)| = e^-1 times the quantiles of one
    # centered reciprocal sum at M = 1000; nothing of it in the manifest
    want = math.exp(-1.0) * gumbel_exact.s_hat_sum_quantiles(
        1000, 1, obj["levels"])
    assert obj["ref_quantiles"] == want.tolist()
    assert "ref_draws" not in obj["manifest"]["config"]


def test_profile_fluct_flat_wave_reference_is_zero(capsys):
    # u'(800) underflows to 0, so the reference quantiles are exactly 0
    code, out, _ = run(["profile", "--spec", GUMBEL, "--N", "100", "--t", "3",
                        "--test", "fluct", "--replicas", "10", "--x", "800"],
                       capsys)
    assert code == 0
    assert json.loads(out)["ref_quantiles"] == [0.0] * 9
    assert '"ref_quantiles": [\n    0.0,' in out


# ---------------------------------------------------------------------------
# scaling and sweep


def test_scaling_distance_shrinks(capsys):
    code, out, _ = run(["scaling", "--N", "100", "--N", "1000",
                        "--samples", "3000"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "cf_distance"]
    assert float(rows[1][1]) < float(rows[0][1])


@pytest.mark.parametrize("seed", [0, 1729, 2 ** 40 + 3])
def test_cell_streams_are_spawned_children(seed):
    children = np.random.SeedSequence(seed).spawn(5)
    for i, child in enumerate(children):
        want = np.random.Generator(np.random.SFC64(child)).random(8)
        np.testing.assert_array_equal(cli._rng(seed, i).random(8), want)
    want = np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seed))).random(8)
    np.testing.assert_array_equal(cli._rng(seed).random(8), want)


@pytest.mark.parametrize("argv", [
    ["scaling", "--N", "100", "--emit", "json"],
    ["sweep", "--task", "zchain", "--N", "2", "--q", "0.5", "--emit", "json"],
    ["gumbel", "--N", "10", "--quad-tol", "1e-3"],
    # scaling is the one cf-distance command
    ["sweep", "--task", "gumbel", "--N", "100"],
    ["gumbel", "--N", "10", "--u-grid=-2:2:0.5"],
    ["sweep", "--task", "zchain", "--N", "2", "--q", "0.5",
     "--samples", "100"],
    ["sweep", "--task", "zchain", "--N", "2", "--q", "0.5", "--u-grid=-2:2:1"],
    # the wave's front-equation identity is a test oracle now
    ["profile", "--spec", GUMBEL, "--N", "2", "--test", "reaction"],
    # the fluct reference is exact: no draws to size
    ["profile", "--spec", GUMBEL, "--N", "20", "--test", "fluct",
     "--ref-draws", "50"],
])
def test_removed_flags_are_usage_errors(argv, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 2
    assert out == ""


def test_sweep_zchain_grid(capsys):
    code, out, _ = run(["sweep", "--task", "zchain", "--N", "2", "--N", "3",
                        "--q", "0.3", "--q", "0.5", "--steps", "2000",
                        "--workers", "1"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "q", "v_exact", "v_sim", "se",
                      "ratio_to_asymptotic", "status"]
    assert len(rows) == 4
    assert all(r[-1] == "ok" for r in rows)


def test_sweep_zchain_ratio_does_not_cancel(capsys):
    # the gap nu(0) ~ 4e-17 is read off the chain, not as 1 - v (= 0.0)
    code, out, _ = run(["sweep", "--task", "zchain", "--N", "8",
                        "--q", "0.5", "--workers", "1"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    ratio = float(dict(zip(header, rows[0]))["ratio_to_asymptotic"])
    assert ratio == pytest.approx(3.149090244193517, rel=1e-12)


def test_sweep_partial_failure_exits_4(capsys):
    code, out, _ = run(["sweep", "--task", "zchain", "--N", "2",
                        "--q", "0.5", "--q", "1.5", "--steps", "1000",
                        "--workers", "1"], capsys)
    assert code == 4
    _, rows = parse_csv(out)
    status = [r[-1] for r in rows]
    assert sum(s == "ok" for s in status) == 1
    assert any(s.startswith("failed:") for s in status)


def test_sweep_refuses_steps_before_any_cell_runs(monkeypatch, capsys):
    # the message is the chain simulation's own, as zchain prints it
    def no_cell(*args):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(cli, "_sweep_cell", no_cell)
    code, _, err = run(["zchain", "--N", "2", "--q", "0.5", "--steps", "20"],
                       capsys)
    assert code == 2
    code, out, sweep_err = run(["sweep", "--task", "zchain", "--N", "2",
                                "--q", "0.5", "--steps", "20", "--workers",
                                "1"], capsys)
    assert (code, out, sweep_err) == (2, "", err)


def test_sweep_zchain_workers_do_not_change_output(capsys):
    # each cell draws from its own stream, in the pool as in the loop
    argv = ["sweep", "--task", "zchain", "--N", "2", "--N", "3",
            "--q", "0.3", "--q", "0.5", "--steps", "2000"]
    code, serial, _ = run(argv + ["--workers", "1"], capsys)
    assert code == 0
    code, parallel, _ = run(argv + ["--workers", "2"], capsys)
    assert code == 0
    assert parallel == serial


# ---------------------------------------------------------------------------
# files, manifests, seeds


def test_csv_out_writes_manifest_and_reruns_identically(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    argv = ["speed", "--spec", BERN, "--N", "2", "--horizon", "50",
            "--emit", "csv", "--out", str(out_path)]
    code, _, _ = run(argv, capsys)
    assert code == 0
    first = out_path.read_bytes()
    manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
    assert manifest["sha256"] == hashlib.sha256(first).hexdigest()
    assert manifest["seed"] == 1729
    code, _, _ = run(argv, capsys)
    assert code == 0
    assert out_path.read_bytes() == first


def test_json_out_embeds_manifest(tmp_path, capsys):
    out_path = tmp_path / "speed.json"
    code, _, _ = run(["speed", "--spec", BERN, "--N", "1", "--horizon", "200",
                      "--out", str(out_path)], capsys)
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["manifest"]["config"]["cmd"] == "speed"
    assert obj["manifest"]["version"]


def test_seed_flag_changes_output(capsys):
    base = ["zchain", "--dist", "bernoulli", "--N", "2", "--q", "0.5",
            "--steps", "2000"]
    _, out_a, _ = run(base, capsys)
    _, out_b, _ = run(base + ["--seed", "7"], capsys)
    _, out_c, _ = run(base + ["--seed", "7"], capsys)
    assert out_a != out_b
    assert out_b == out_c


def test_seed_before_the_subcommand_is_honoured(capsys):
    base = ["gumbel", "--N", "10", "--samples", "2000"]
    _, before, _ = run(["--seed", "7"] + base, capsys)
    _, after, _ = run(base + ["--seed", "7"], capsys)
    _, default, _ = run(base, capsys)
    assert before == after
    assert before != default


def test_seed_env_matches_flag(monkeypatch, capsys):
    base = ["zchain", "--dist", "bernoulli", "--N", "2", "--q", "0.5",
            "--steps", "2000"]
    _, flagged, _ = run(base + ["--seed", "99"], capsys)
    monkeypatch.setenv("FRONTLAB_SEED", "99")
    _, from_env, _ = run(base, capsys)
    assert from_env == flagged


def test_seed_env_invalid_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("FRONTLAB_SEED", "xyz")
    code, _, err = run(["gumbel", "--N", "10", "--samples", "100"], capsys)
    assert code == 2
    assert "FRONTLAB_SEED" in err


# ---------------------------------------------------------------------------
# failure modes


def test_float_hitting_underflow_exits_3(capsys):
    code, _, err = run(["zchain", "--dist", "bernoulli", "--N", "20",
                        "--q", "0.1", "--report", "hitting"], capsys)
    assert code == 3
    assert "--mode precise" in err


def test_bad_spec_json_exits_2(capsys):
    code, _, err = run(["speed", "--spec", "{nope", "--N", "2",
                        "--horizon", "200"], capsys)
    assert code == 2
    assert err.startswith("frontlab:")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, message", [
    (["profile", "--spec", GUMBEL, "--N", "20", "--t", "3", "--test",
      "marginal", "--replicas", "1", "--k", "2"], "replicas >= 2"),
    (["speed", "--spec", BERN, "--N", "3", "--horizon", "200", "--front",
      "order", "--front-param", "2.5"], "integer rank"),
    (["speed", "--spec", GUMBEL, "--N", "2", "--horizon", "200", "--front",
      "lse", "--front-param", "inf"], "finite rate > 0"),
    (["speed", "--spec", GUMBEL, "--N", "0"], "N >= 1"),
    (["speed", "--spec", BERN, "--N", "0", "--method", "renewal"], "N >= 1"),
    (["profile", "--spec", GUMBEL, "--N", "0", "--test", "ks"], "N >= 1"),
    (["zchain", "--dist", "lattice", "--report", "ladder", "--N", "3",
      "--probs", GUMBEL], "lattice law"),
    (["scaling", "--N", "10", "--samples", "0"], "at least one sample"),
    (["gumbel", "--N", "10", "--samples", "100", "--lambda", "-1"],
     "rate must be positive"),
    (["gumbel", "--N", "10", "--samples", "100", "--lambda", "0"],
     "rate must be positive"),
    (["gumbel", "--N", "10", "--samples", "100", "--lambda", "inf"],
     "rate must be positive"),
    (["gumbel", "--N", "10", "--samples", "100", "--a", "nan"],
     "loc must be finite"),
    (["profile", "--spec", GUMBEL, "--N", "20", "--t", "3", "--test",
      "fluct", "--replicas", "0"], "replicas >= 1"),
    (["profile", "--spec", GUMBEL, "--N", "20", "--t", "3", "--test",
      "fluct", "--ref-size", "0"], "ref_size <= 2^53, got 0"),
    # at t = 0 there is no previous front to center the profile on
    (["profile", "--spec", GUMBEL, "--N", "10", "--t", "0"],
     "center must be finite"),
    (["speed", "--spec", BERN, "--N", "2", "--emit", "csv", "--horizon",
      "-1"], "t >= 0"),
    (["speed", "--spec", BERN, "--N", "2", "--burn", "-5"],
     "t_burn must be >= 0"),
    # sweep options are checked before any cell runs
    (["sweep", "--task", "zchain", "--N", "2", "--q", "0.5", "--workers",
      "0"], "--workers >= 1"),
    (["sweep", "--task", "zchain", "--N", "2", "--q", "0.5", "--workers",
      "-3"], "--workers >= 1"),
    # the trajectory dump reads no estimate option
    (["speed", "--spec", GUMBEL, "--N", "2", "--emit", "csv", "--horizon",
      "3", "--method", "renewal", "--burn", "7", "--renewals", "3"],
     "--burn, --method, --renewals set the speed estimate"),
    (["speed", "--spec", GUMBEL, "--N", "2", "--emit", "csv", "--burn",
      "0"], "--burn set the speed estimate"),
    # renewal blocks read no batch-means option, batch means no --renewals
    (["speed", "--spec", GUMBEL, "--N", "2", "--method", "renewal",
      "--renewals", "50", "--burn", "7", "--horizon", "150"],
     "--horizon, --burn set the batch-means estimate"),
    (["speed", "--spec", GUMBEL, "--N", "2", "--horizon", "300",
      "--renewals", "50"], "--renewals set the renewal estimate"),
    (["profile", "--spec", GUMBEL, "--N", "20", "--t", "3", "--test",
      "fluct", "--ref-size", str(2 ** 53 + 1)], "ref_size <= 2^53"),
    # the fluctuation reference is exact for Gumbel noise only
    (["profile", "--spec", BERN, "--N", "20", "--t", "3", "--test",
      "fluct"], "requires Gumbel noise"),
    # a misspelled field is refused, not read as the default
    (["speed", "--spec", '{"type":"gumbel","lamda":2}', "--N", "2"],
     "unknown field(s) for a gumbel law: 'lamda'"),
])
def test_bad_parameter_exits_2(argv, message, capsys):
    # refused, not run: no NaN in the JSON, no truncated rank
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert message in err


def test_bad_grid_exits_2(capsys):
    code, _, _ = run(["profile", "--spec", GUMBEL, "--N", "100",
                      "--grid", "4:-4:0.5"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["scaling", "--N", "10", "--u-grid=2:-2:0.5"],
    ["scaling", "--N", "10", "--u-grid=-2:2:0"],
    ["scaling", "--N", "10", "--u-grid=-2:2:-0.5"],
])
def test_bad_u_grid_exits_2(argv, capsys):
    # reversed bounds and steps <= 0 are refused before any cell runs
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("frontlab: bad grid bounds")


def test_unwritable_out_exits_3(tmp_path, capsys):
    target = tmp_path / "missing" / "deep" / "x.csv"
    code, _, err = run(["gumbel", "--N", "10", "--samples", "100",
                        "--out", str(target)], capsys)
    assert code == 3
    assert "cannot write" in err


def test_unknown_subcommand_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_no_subcommand_exits_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
