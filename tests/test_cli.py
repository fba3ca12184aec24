import hashlib
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bigenus import cli
from bigenus.bigraph import GenParams
from bigenus.cli import EXPERIMENT_KEYS, main, parse_config, parse_p
from bigenus.errors import ValidationError


def test_parse_p():
    assert parse_p("0.3", 100) == 0.3
    assert parse_p("nexp:-0.4", 10 ** 5) == pytest.approx((10 ** 5) ** -0.4)
    with pytest.raises(ValidationError):
        parse_p("1.5", 100)
    with pytest.raises(ValidationError):
        parse_p("nexp:0.5", 100)  # 100**0.5 = 10 > 1


def test_parse_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nn1 = 10,20\np=0.3\n\nout = x.csv\n")
    assert parse_config(str(cfg)) == {"n1": "10,20", "p": "0.3", "out": "x.csv"}
    cfg.write_text("n1=10\nn1=20\n")
    with pytest.raises(ValidationError):
        parse_config(str(cfg))
    cfg.write_text("just a line\n")
    with pytest.raises(ValidationError):
        parse_config(str(cfg))


def test_generate(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["generate", "--n1", "3", "--n2", "3", "--p", "1",
                 "--out", str(out)]) == 0
    assert "edges=9" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert lines[0] == "bipartite 3 3"
    assert len(lines) == 10


def test_generate_standard(capsys):
    assert main(["generate", "--standard", "--n1", "8", "--n2", "2",
                 "--p", "0.5"]) == 0
    captured = capsys.readouterr()
    assert "edges=8" in captured.err


def test_generate_bad_p():
    assert main(["generate", "--n1", "3", "--n2", "3", "--p", "1.5"]) == 2


def test_predict_sweep(capsys):
    expect = {"nexp:-0.6": "small-part-c", "nexp:-0.4": "small-part-b",
              "0.3": "small-part-a"}
    for token, regime in expect.items():
        assert main(["predict", "--n1", "100000", "--n2", "5",
                     "--p", token]) == 0
        assert f"regime={regime}" in capsys.readouterr().out
    # the parts are taken as regime_classify takes them, the small one as n2
    for n1, n2 in (("300", "5"), ("5", "300")):
        assert main(["predict", "--n1", n1, "--n2", n2, "--p", "0.2"]) == 0
        assert capsys.readouterr().out == ("regime=critical-window\nprediction=4.872\n"
                                           "prediction_nonorientable=9.744\n")
    # no formula reads a trail parameter, so predict takes none
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--n1", "300", "--n2", "5", "--p", "0.2", "--i", "1"])
    assert exc.value.code == 2 and "unrecognized arguments: --i 1" in capsys.readouterr().err


def test_estimate_from_file(tmp_path, capsys):
    g = tmp_path / "k33.txt"
    csv = tmp_path / "row.csv"
    main(["generate", "--n1", "3", "--n2", "3", "--p", "1", "--out", str(g)])
    capsys.readouterr()
    assert main(["estimate", "--in", str(g), "--out", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "lower=1" in out
    assert "upper=1" in out
    body = csv.read_text().splitlines()
    assert body[0].startswith("# n1,n2,p")
    assert body[1].split(",")[6] == "1"  # lower column


def test_estimate_missing_file(tmp_path):
    assert main(["estimate", "--in", str(tmp_path / "nope.txt")]) == 3


def test_orient_trails_match(tmp_path, capsys):
    g = tmp_path / "g.txt"
    d = tmp_path / "d.txt"
    t = tmp_path / "t.txt"
    main(["generate", "--n1", "6", "--n2", "6", "--p", "0.7", "--seed", "4",
          "--out", str(g)])
    assert main(["orient", "--in", str(g), "--seed", "4", "--out", str(d)]) == 0
    assert d.read_text().startswith("digraph 12")
    assert main(["trails", "--in", str(d), "--out", str(t)]) == 0
    n_lines = len(t.read_text().splitlines())
    assert f"trails={n_lines}" in capsys.readouterr().err
    assert main(["match", "--in", str(d)]) == 0
    out = capsys.readouterr().out
    assert "coverage=" in out


# sha256 of the files `bigenus trails` and `bigenus match --out` write
# for fixed seeded graphs. G(50, 50, 0.5) seed 3 has 12,061 closed
# 4-trails, more than one chunk of rows of the writer.
WRITER_BYTES = {
    ("trails", "50", "3", "1"):
        "5c34a2f2406c7d25915eac58fe145a5078db123a6191497157064a73bc2ba87d",
    ("trails", "16", "5", "2"):
        "9b39c42648c618394bca39859e280e10ee1a53c603aca4ef1a4196e12003d68d",
    ("match", "50", "3", "1"):
        "a5506ddeeacd1bec01833b35221187674f0cdb0e5eb80915a106ac47edadf299",
    ("match", "16", "5", "2"):
        "3c095a8f929c6d92eb02f7dae4416d49680efcdb51aa75db15ea2e265ad1431f",
}
# The whole report `bigenus match` prints for the same graphs.
MATCH_REPORTS = {
    ("50", "3", "1"): "seed=3\nsize=212\nn_arcs=1254\nd=4\ncoverage=0.676236\nexcluded=0\n",
    ("16", "5", "2"): "seed=5\nsize=9\nn_arcs=119\nd=6\ncoverage=0.453782\nexcluded=0\n",
}


# sha256 of the files `bigenus generate` and `bigenus orient` write. The
# graph draws 40,000 cells and the orientation 33,741 coins, both past
# one pass of the Philox kernel (32,768 words).
STREAM_BYTES = {
    ("generate", "200", "0.05", "3"):
        "e6515736aec3dd83184b59aef25b00a7c66d511ff8dcc22373e3fc2b9f0b6a30",
    ("orient", "260", "0.5", "2"):
        "33706b76487cecadf22da8c4aac9685b6b33931830151dae14842b13804f49e0",
}


@pytest.mark.parametrize("command,n,p,seed", sorted(STREAM_BYTES))
def test_stream_bytes_are_frozen(tmp_path, capsys, command, n, p, seed):
    out = tmp_path / "out.txt"
    assert main([command, "--n1", n, "--n2", n, "--p", p, "--seed", seed,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == STREAM_BYTES[(command, n, p, seed)]


@pytest.mark.parametrize("command,n,seed,i", sorted(WRITER_BYTES))
def test_writer_bytes_are_frozen(tmp_path, capsys, command, n, seed, i):
    out = tmp_path / "out.txt"
    assert main([command, "--n1", n, "--n2", n, "--p", "0.5", "--seed", seed,
                 "--i", i, "--out", str(out)]) == 0
    data = out.read_bytes()
    captured = capsys.readouterr()
    lines = data.count(b"\n")
    if command == "trails":
        assert f"trails={lines}\n" in captured.err
    else:
        assert f"size={lines}\n" in captured.out
        assert captured.out == MATCH_REPORTS[(n, seed, i)]
    assert hashlib.sha256(data).hexdigest() == WRITER_BYTES[(command, n, seed, i)]


def test_oracle_cli(capsys):
    assert main(["oracle", "--complete-bipartite", "3", "3"]) == 0
    out = capsys.readouterr().out
    assert "formula=1" in out and "genus=1" in out
    assert main(["oracle", "--complete", "6", "--method", "pincer"]) == 0
    out = capsys.readouterr().out
    assert "lower=1" in out and "upper=1" in out and "exact=1" in out
    assert main(["oracle", "--complete", "6"]) == 2  # budget refusal


def test_oracle_witness(tmp_path, capsys):
    g = tmp_path / "k33.txt"
    w = tmp_path / "rot.txt"
    main(["generate", "--n1", "3", "--n2", "3", "--p", "1", "--out", str(g)])
    capsys.readouterr()
    assert main(["oracle", "--in", str(g), "--witness", str(w)]) == 0
    assert "genus=1" in capsys.readouterr().out
    assert len(w.read_text().splitlines()) == 6
    # K_{3,3}, an edge and an isolated vertex: one line per vertex,
    # each component searched on its own
    d = tmp_path / "disc.txt"
    d.write_text("bipartite 5 4\n" + "".join(f"{x} {y}\n" for x in range(3) for y in (5, 6, 7))
                 + "3 8\n")
    assert main(["oracle", "--in", str(d), "--witness", str(w)]) == 0
    assert "genus=1" in capsys.readouterr().out
    assert w.read_text().splitlines()[3:5] == ["3: 3-8", "4:"]
    assert len(w.read_text().splitlines()) == 9
    # only the exact search finds a minimum-genus rotation to write
    w.unlink()
    assert main(["oracle", "--in", str(g), "--method", "pincer", "--witness", str(w)]) == 2
    assert "--witness needs --method exact" in capsys.readouterr().err
    assert not w.exists()
    # --method takes exact or pincer only
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--in", str(g), "--method", "heuristic"])
    assert exc.value.code == 2 and "invalid choice: 'heuristic'" in capsys.readouterr().err


def _write_config(path, out, extra=""):
    path.write_text(
        "n1 = 8,12\nn2 = 4\np = 0.5\ntrials = 2\nseed = 3\n"
        f"out = {out}\n{extra}")


def test_experiment_and_resume(tmp_path, capsys):
    cfg = tmp_path / "e.cfg"
    out = tmp_path / "e.csv"
    _write_config(cfg, out)
    assert main(["experiment", "--config", str(cfg)]) == 0
    first = out.read_text().splitlines()
    assert first[0].startswith("#") and "schema" in first[0]
    assert first[1].split(",")[:5] == ["n1", "n2", "p", "i", "seed"]
    assert first[1].split(",")[-1] == "timestamp"
    assert len(first) == 2 + 4  # 2 n1 values x 2 trials
    capsys.readouterr()

    # rerun: everything is already present
    assert main(["experiment", "--config", str(cfg)]) == 0
    assert "todo=0" in capsys.readouterr().err
    assert out.read_text().splitlines() == first

    # rows are deterministic apart from the trailing timestamp
    out2 = tmp_path / "e2.csv"
    _write_config(cfg, out2)
    main(["experiment", "--config", str(cfg)])
    strip = lambda lines: [l.rsplit(",", 1)[0] for l in lines[2:]]
    assert strip(out2.read_text().splitlines()) == strip(first)


def test_experiment_runs_an_i2_cell(tmp_path, capsys):
    # one cell at i = 2, where the trails have 6 arcs
    cfg, out = tmp_path / "e.cfg", tmp_path / "e.csv"
    cfg.write_text(f"n1 = 16\nn2 = 12\np = 0.5\ni = 2\nout = {out}\n")
    assert main(["experiment", "--config", str(cfg)]) == 0
    (row,) = out.read_text().splitlines()[2:]
    assert row.split(",")[-2] != "error", capsys.readouterr().err


def test_experiment_error_rows(tmp_path, capsys):
    # G(20, 20, 0.5) at i = 4 is refused by the count guard on its
    # closed 8-trails, and G(20, 3, 0.5) estimates
    cfg = tmp_path / "e.cfg"
    out = tmp_path / "e.csv"
    cfg.write_text(f"n1 = 20\nn2 = 3,20\np = 0.5\ni = 4\nout = {out}\n")
    assert main(["experiment", "--config", str(cfg)]) == 0
    err = capsys.readouterr().err
    # a refusal is one line; only a fault prints its traceback
    assert ("cell (20,20,0.5,4,0) failed: GuardError: "
            "closed-trail count of length 8 too expensive here") in err
    assert "Traceback" not in err
    rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
    assert [r[1] for r in rows] == ["3", "20"]
    assert rows[0][-2] != "error" and rows[1][-2] == "error"


@pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                    reason="the workers inherit the patched estimator only when forked")
def test_experiment_survives_a_failing_cell(tmp_path, capsys, monkeypatch):
    # a fault in one cell, not only a refusal, becomes an error row
    # naming the exception class; the other cells are still written
    estimate = cli.estimate_genus

    def faulty(g, i, cfg):
        if g.n1 == 12 and cfg.seed == 3:
            raise RuntimeError("injected")
        return estimate(g, i, cfg)

    monkeypatch.setattr(cli, "estimate_genus", faulty)
    cfg = tmp_path / "e.cfg"
    out = tmp_path / "e.csv"
    _write_config(cfg, out, "workers = 1\n")
    assert main(["experiment", "--config", str(cfg)]) == 0
    err = capsys.readouterr().err
    assert "cell (12,4,0.5,1,3) failed: RuntimeError: injected" in err
    assert err.count("Traceback") == 1
    rows = {tuple(r[:5]): r for r in (l.split(",") for l in out.read_text().splitlines()[2:])}
    assert len(rows) == 4 and all(len(r) == 13 for r in rows.values())
    failed = ("12", "4", "0.5", "1", "3")
    assert rows[failed][11] == "error"
    assert all(r[11] != "error" for k, r in rows.items() if k != failed)


def _kill_seed_1(monkeypatch, die=lambda: os._exit(9)) -> list[int]:
    """Make the worker of every seed-1 cell call die, by default exiting,
    and return the list that records the size of each process pool the
    sweep opens."""
    generate, pool = cli.gen_random_bipartite, cli.ProcessPoolExecutor
    sizes = []

    def dying(params):
        if params.seed == 1:
            die()
        return generate(params)

    def recording(max_workers):
        sizes.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(cli, "gen_random_bipartite", dying)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", recording)
    return sizes


@pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                    reason="the workers inherit the patched generator only when forked")
def test_experiment_survives_a_dead_worker(tmp_path, capsys, monkeypatch):
    # the seed-1 cell's worker dies, which breaks the pool: the finished
    # rows are kept, the first cell left without a row runs alone in a
    # pool of one, and a fresh pool of both workers takes the cells after
    # it. Seed 1 gets an error row when its worker dies alone. The pools
    # are [2, 1, 2] when seed 0 finished before the break, else seed 0
    # runs alone first and they are [2, 1, 2, 1, 2].
    sizes = _kill_seed_1(monkeypatch)
    cfg, out = tmp_path / "e.cfg", tmp_path / "e.csv"
    cfg.write_text(f"n1 = 20\nn2 = 20\np = 0.2\ntrials = 4\nworkers = 2\nout = {out}\n")
    assert main(["experiment", "--config", str(cfg)]) == 0
    assert "cell (20,20,0.2,1,1) failed: BrokenProcessPool" in capsys.readouterr().err
    rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
    assert [r[4] for r in rows] == ["0", "1", "2", "3"]
    assert all(len(r) == 13 and (r[11] == "error") == (r[4] == "1") for r in rows)
    assert sizes[:2] == [2, 1] and len(sizes) <= 5 and sizes.count(1) <= 2, sizes
    # an error row counts as done when the sweep is resumed
    assert main(["experiment", "--config", str(cfg)]) == 0
    assert "todo=0" in capsys.readouterr().err


def _interrupt():
    raise KeyboardInterrupt


@pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                    reason="the workers inherit the patched generator only when forked")
@pytest.mark.parametrize("die, failure", [(lambda: os._exit(9), "BrokenProcessPool"),
                                          (_interrupt, "KeyboardInterrupt")],
                         ids=["exit", "interrupt"])
def test_dead_worker_leaves_one_pool_for_the_rest(tmp_path, capsys, monkeypatch, die, failure):
    # at one worker the failing seed-1 cell runs alone once, and the four
    # cells after it share one fresh pool instead of a pool each. An
    # interrupt in the worker alone leaves the pool whole, so shutting it
    # down cancels the queued cells, which the fresh pool runs.
    sizes = _kill_seed_1(monkeypatch, die)
    cfg, out = tmp_path / "e.cfg", tmp_path / "e.csv"
    cfg.write_text(f"n1 = 20\nn2 = 20\np = 0.2\ntrials = 6\nworkers = 1\nout = {out}\n")
    assert main(["experiment", "--config", str(cfg)]) == 0
    assert f"cell (20,20,0.2,1,1) failed: {failure}" in capsys.readouterr().err
    rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
    assert [r[4] for r in rows] == ["0", "1", "2", "3", "4", "5"]
    assert all(len(r) == 13 and (r[11] == "error") == (r[4] == "1") for r in rows)
    assert sizes == [1, 1, 1]


@pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                    reason="the workers inherit the patched generator only when forked")
def test_closed_sweep_starts_no_queued_cell(tmp_path, monkeypatch):
    # a sweep that stops taking rows, as an interrupted one does, cancels
    # the cells that have not started instead of computing them all
    generate = cli.gen_random_bipartite

    def marking(params):
        (tmp_path / f"started-{params.seed}").touch()
        time.sleep(0.2)
        return generate(params)

    monkeypatch.setattr(cli, "gen_random_bipartite", marking)
    rows = cli._pool_rows([(GenParams(20, 20, 0.2, seed=s), 1) for s in range(8)], 1)
    assert next(rows)[0][4] == "0"
    rows.close()
    assert len(list(tmp_path.glob("started-*"))) < 8


@pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                    reason="the workers inherit the patched generator only when forked")
def test_experiment_survives_a_dead_worker_at_one_worker(tmp_path):
    # In a pool of one, the cells queued behind a dying worker run again
    # and get their rows; only the dying cell gets an error row. The
    # sweep runs in a subprocess, so a dying worker that ended the sweep
    # would fail this test, not end the test run.
    cfg, out = tmp_path / "e.cfg", tmp_path / "e.csv"
    cfg.write_text(f"n1 = 20\nn2 = 20\np = 0.2\ntrials = 4\nworkers = 1\nout = {out}\n")
    code = ("import os, sys\n"
            "from bigenus import cli\n"
            "generate = cli.gen_random_bipartite\n"
            "cli.gen_random_bipartite = (\n"
            "    lambda params: os._exit(9) if params.seed == 1 else generate(params))\n"
            "sys.exit(cli.main(['experiment', '--config', sys.argv[1]]))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, str(cfg)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "cell (20,20,0.2,1,1) failed: BrokenProcessPool" in proc.stderr
    rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
    assert [r[4] for r in rows] == ["0", "1", "2", "3"]
    assert all(len(r) == 13 and (r[11] == "error") == (r[4] == "1") for r in rows)


def test_experiment_refuses_invalid_grid_cell(tmp_path, capsys):
    cfg = tmp_path / "e.cfg"
    out = tmp_path / "e.csv"
    for grid, cell in (("n1 = 20,40\nn2 = 20,40\np = 0.5\n", "n1=20 n2=40 p=0.5"),
                       ("n1 = 6,0\nn2 = 3\np = 0.5\n", "n1=0 n2=3 p=0.5")):
        cfg.write_text(f"{grid}out = {out}\n")
        assert main(["experiment", "--config", str(cfg)]) == 2
        assert f"grid cell {cell}: need n1 >= n2" in capsys.readouterr().err
        assert not out.exists()


def test_experiment_refuses_invalid_settings(tmp_path, capsys):
    cfg = tmp_path / "e.cfg"
    out = tmp_path / "e.csv"
    for setting, key in (("trials = 0", "trials"), ("i = 0,1", "i")):
        cfg.write_text(f"n1 = 6\nn2 = 3\np = 0.5\n{setting}\nout = {out}\n")
        assert main(["experiment", "--config", str(cfg)]) == 2
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not out.exists()


def test_negative_seed_exits_2(tmp_path, capsys):
    g = tmp_path / "g.txt"
    assert main(["generate", "--n1", "6", "--n2", "3", "--p", "0.5", "--out", str(g)]) == 0
    for argv in (["generate", "--n1", "6", "--n2", "3", "--p", "0.5", "--seed", "-1"],
                 ["estimate", "--in", str(g), "--i", "1", "--seed", "-1"],
                 ["orient", "--in", str(g), "--seed", "-1"]):
        assert main(argv) == 2
        assert "error: seed must be a nonnegative integer, got -1" in capsys.readouterr().err
    # a config is refused whole, before the CSV is opened
    cfg = tmp_path / "e.cfg"
    out = tmp_path / "e.csv"
    cfg.write_text(f"n1 = 8,12\nn2 = 4\np = 0.5\ntrials = 2\nseed = -3\nout = {out}\n")
    assert main(["experiment", "--config", str(cfg)]) == 2
    assert "seed must be a nonnegative integer, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_trail_cap_is_refused(tmp_path, capsys):
    # a trail family is never capped and the matching is always the
    # random greedy: `cap` and `strategy` are unknown sweep keys, like
    # `eps`, and `--cap` and `--strategy` options no subcommand takes
    cfg = tmp_path / "e.cfg"
    out = tmp_path / "e.csv"
    for key, value in (("cap", "5"), ("strategy", "greedy")):
        _write_config(cfg, out, f"{key} = {value}\n")
        assert main(["experiment", "--config", str(cfg)]) == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        assert not out.exists()
    for option, value, commands in (("--cap", "5", ("trails", "match", "estimate")),
                                    ("--strategy", "greedy", ("match", "estimate"))):
        for command in commands:
            with pytest.raises(SystemExit) as exc:
                main([command, "--n1", "6", "--n2", "3", "--p", "0.5", option, value])
            assert exc.value.code == 2
            assert option in capsys.readouterr().err


def test_readme_experiment_keys_are_the_accepted_keys():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("### Experiment config", 1)[1]
    keys = section.split("The accepted keys are `", 1)[1].split("`", 1)[0]
    assert keys.split() == list(EXPERIMENT_KEYS)


def test_readme_experiment_grid_runs(tmp_path, capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("### Experiment config", 1)[1]
    block = section.split("```\n", 2)[1]
    assert "out = results.csv" in block
    cfg = tmp_path / "e.cfg"
    out = tmp_path / "results.csv"
    cfg.write_text(block)
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
    assert len(rows) == 2 * 2 * 2 * 2   # n1 x n2 x p x trials
    assert all(len(r) == 13 and r[-2] != "error" for r in rows)


def test_experiment_config_validation(tmp_path):
    cfg = tmp_path / "e.cfg"
    cfg.write_text("n1 = 5\nn2 = 3\np = 0.5\nout = x.csv\nbogus = 1\n")
    assert main(["experiment", "--config", str(cfg)]) == 2
    cfg.write_text("n1 = 5\nn2 = 3\np = 0.5\nout = x.csv\neps = 0.15\n")
    assert main(["experiment", "--config", str(cfg)]) == 2
    cfg.write_text("n1 = 5\nn2 = 3\n")
    assert main(["experiment", "--config", str(cfg)]) == 2


def test_experiment_recomputes_torn_tail(tmp_path, capsys):
    cfg = tmp_path / "e.cfg"
    out = tmp_path / "e.csv"
    _write_config(cfg, out)
    assert main(["experiment", "--config", str(cfg)]) == 0
    full = out.read_text()
    last = full.splitlines()[-1]
    # an interrupted write leaves the last row cut short, without newline
    out.write_text(full[:full.rindex(last)] + last[:len(last) // 2])
    capsys.readouterr()
    assert main(["experiment", "--config", str(cfg)]) == 0
    assert "todo=1" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert out.read_text().endswith("\n")
    assert len(lines) == len(full.splitlines())
    assert all(len(line.split(",")) == 13 for line in lines[1:])
    strip = lambda rows: sorted(row.rsplit(",", 1)[0] for row in rows[2:])
    assert strip(lines) == strip(full.splitlines())


def test_malformed_input_exits_2(tmp_path, capsys):
    csv = tmp_path / "row.csv"
    assert main(["predict", "--n1", "10", "--n2", "5", "--p", "abc"]) == 2
    assert "'abc'" in capsys.readouterr().err
    g = tmp_path / "g.txt"
    for command, text, where in (("estimate", "bipartite 2 3\n0 2\n0 2 5\n", "line 3"),
                                 ("estimate", "bipartite 2 x\n0 2\n", "line 1"),
                                 ("trails", "digraph 3\n# arcs\n0 1\n1 x\n", "line 4")):
        g.write_text(text)
        assert main([command, "--in", str(g), "--out", str(csv)]) == 2
        assert f"error: {where}: expected" in capsys.readouterr().err
        assert not csv.exists()
    g.write_text("digraph -3\n")
    assert main(["trails", "--in", str(g), "--out", str(csv)]) == 2
    assert "error: vertex count must be nonnegative" in capsys.readouterr().err
    assert not csv.exists()
    # only trails and match read a digraph; the others refuse its header
    d = tmp_path / "d.txt"
    assert main(["orient", "--n1", "4", "--n2", "3", "--p", "1", "--out", str(d)]) == 0
    for args in (["estimate"], ["generate"], ["orient"], ["oracle"]):
        assert main(args + ["--in", str(d)]) == 2
        assert f"error: {d}: unrecognized header, want 'bipartite'\n" in capsys.readouterr().err
    for args in (["trails"], ["match"]):
        assert main(args + ["--in", str(d), "--out", str(csv)]) == 0
        csv.unlink()
    cfg = tmp_path / "e.cfg"
    for setting, message in (("trials = x", "trials must be an integer, got 'x'"),
                             ("seed = 1.5", "seed must be an integer"),
                             ("i = 1,y", "i must be integers"),
                             ("workers = 0", "workers must be >= 1"),
                             (f"workers = {os.cpu_count() + 1}", "workers must be at most")):
        cfg.write_text(f"n1 = 6\nn2 = 3\np = 0.5\nout = {csv}\n{setting}\n")
        assert main(["experiment", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not csv.exists()
