from pathlib import Path

import pytest

from bigenus import trails
from bigenus.cli import main, parse_config, parse_p
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
    assert main(["match", "--in", str(d), "--strategy", "nibble"]) == 0
    out = capsys.readouterr().out
    assert "strategy=nibble" in out
    assert "coverage=" in out


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
    # only the exact search finds a minimum-genus rotation to write
    w.unlink()
    for method in ("heuristic", "pincer"):
        assert main(["oracle", "--in", str(g), "--method", method,
                     "--witness", str(w)]) == 2
        assert "--witness needs --method exact" in capsys.readouterr().err
    assert not w.exists()


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


def test_experiment_error_rows(tmp_path, capsys, monkeypatch):
    # G(40, 3, 0.5) seed 0 has 24 closed 4-trails, G(6, 3, 0.5) none
    monkeypatch.setattr(trails, "MAX_TRAILS", 10)
    cfg = tmp_path / "e.cfg"
    out = tmp_path / "e.csv"
    cfg.write_text(f"n1 = 6,40\nn2 = 3\np = 0.5\nout = {out}\n")
    assert main(["experiment", "--config", str(cfg)]) == 0
    assert "cell (40,3,0.5,1,0) failed" in capsys.readouterr().err
    rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
    by_n1 = {r[0]: r for r in rows}
    assert by_n1["40"][-2] == "error"
    assert by_n1["6"][-2] != "error"


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
    for setting, key in (("strategy = bogus", "strategy"), ("cap = -3", "cap"),
                         ("i = 0,1", "i")):
        cfg.write_text(f"n1 = 6\nn2 = 3\np = 0.5\n{setting}\nout = {out}\n")
        assert main(["experiment", "--config", str(cfg)]) == 2
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not out.exists()


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
