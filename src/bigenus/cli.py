"""Command-line interface.

Subcommands: generate, orient, trails, match, estimate, oracle,
predict, experiment. Graphs and digraphs travel as the plain-text
formats of the bigraph module; estimates become CSV rows with a fixed,
versioned column set. Exit codes: 0 success, 2 guard or validation
refusal, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone

from .bigraph import (Digraph, GenParams, check_seed, complete_bipartite_graph,
                      complete_graph, gen_random_bipartite, orient_randomly,
                      read_bipartite, read_digraph, standard_graph, write_bipartite,
                      write_digraph)
from .embedding import rotation_to_text
from .errors import GuardError, ValidationError
from .estimator import (CELL_COLUMNS, CSV_COLUMNS, PipelineConfig, csv_key,
                        estimate_genus, prediction_for, regime_classify)
from .oracle import (SearchBudget, exact_genus, genus_formula_reference,
                     minimum_genus_rotation, pincer_genus)
from .trails import (build_trail_hypergraph, find_matching, matching_report_to_text,
                     trails_to_text)

SCHEMA_LINE = "# bigenus experiment csv schema v1"
EXPERIMENT_COLUMNS = CSV_COLUMNS + ("timestamp",)
# The keys an experiment config may set; any other is refused.
EXPERIMENT_KEYS = ("n1", "n2", "p", "i", "trials", "seed", "out", "workers")


def parse_p(token: str, n1: int) -> float:
    """Edge probability: a literal, or `nexp:E` meaning n1**E."""
    nexp = token.startswith("nexp:")
    try:
        value = float(token[len("nexp:"):] if nexp else token)
    except ValueError:
        raise ValidationError(f"p {token!r} is not a number or nexp:E") from None
    if nexp and n1 < 1:
        raise ValidationError("nexp: probability needs n1 >= 1")
    p = float(n1) ** value if nexp else value
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"p evaluates to {p}, outside [0,1]")
    return p


def parse_config(path: str) -> dict[str, str]:
    """Flat key=value file; # comments and blank lines ignored."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValidationError(f"{path}:{lineno}: expected key=value")
            key = key.strip()
            if key in out:
                raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value.strip()
    return out


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


_READERS = {"bipartite": read_bipartite, "digraph": read_digraph}


def _load_graph_file(path: str, headers: tuple[str, ...]):
    """The graph or digraph in the file, read by its header word, which
    must be one of the `headers` that the caller takes."""
    with open(path) as fh:
        head = fh.readline().split()
        fh.seek(0)
        if head and head[0] in headers:
            return _READERS[head[0]](fh)
    want = " or ".join(repr(h) for h in headers)
    raise ValidationError(f"{path}: unrecognized header, want {want}")


def _graph_from_args(args, headers: tuple[str, ...] = ("bipartite",)) -> tuple:
    """(graph, p or None). Reads --in when given, a file with one of
    the `headers`, and then refuses the model flags; else generates."""
    if getattr(args, "infile", None):
        given = [f"--{k}" for k in ("n1", "n2", "p", "standard") if vars(args).get(k) is not None]
        if given:
            raise ValidationError(f"--in takes no model flags, got {' '.join(given)}")
        g = _load_graph_file(args.infile, headers)
        return g, None
    if args.n1 is None or args.n2 is None or args.p is None:
        raise ValidationError("need either --in FILE or all of --n1 --n2 --p")
    p = parse_p(args.p, args.n1)
    if getattr(args, "standard", False):
        return standard_graph(args.n1, args.n2, p), p
    return gen_random_bipartite(GenParams(args.n1, args.n2, p, seed=args.seed or 0)), p


def _digraph_from_args(args, matches: bool):
    g, _p = _graph_from_args(args, ("bipartite", "digraph"))
    if not isinstance(g, Digraph):
        return orient_randomly(g, args.seed or 0)
    if args.seed is not None and not matches:  # only a matching reads it here
        raise ValidationError("--seed is read by nothing with a digraph file")
    return g


def cmd_generate(args) -> int:
    if args.seed is not None and (args.infile or args.standard):
        raise ValidationError("--seed is read by nothing with --in or --standard")
    g, _p = _graph_from_args(args)
    with _open_out(args.out) as fh:
        write_bipartite(g, fh)
    print(f"edges={g.n_edges}", file=sys.stderr)
    return 0


def cmd_orient(args) -> int:
    g, _p = _graph_from_args(args)
    d = orient_randomly(g, args.seed or 0)
    with _open_out(args.out) as fh:
        write_digraph(d, fh)
    print(f"arcs={d.n_arcs}", file=sys.stderr)
    return 0


def cmd_trails(args) -> int:
    d = _digraph_from_args(args, matches=False)
    h = build_trail_hypergraph(d, args.i)
    with _open_out(args.out) as fh:
        trails_to_text(h, fh)
    print(f"trails={h.n_hyperedges}", file=sys.stderr)
    return 0


def cmd_match(args) -> int:
    d = _digraph_from_args(args, matches=True)
    h = build_trail_hypergraph(d, args.i)
    report = find_matching(h, args.seed or 0)
    matching_report_to_text(report, sys.stdout)
    if args.out:
        with _open_out(args.out) as fh:
            trails_to_text(report.chosen, fh)
    return 0


def cmd_estimate(args) -> int:
    g, p = _graph_from_args(args)
    cfg = PipelineConfig(seed=args.seed or 0, p=p)
    est = estimate_genus(g, args.i, cfg)
    est.to_text(sys.stdout)
    with _open_out(args.out) as fh:
        fh.write("# " + ",".join(CSV_COLUMNS) + "\n")
        fh.write(",".join(est.csv_row()) + "\n")
    return 0


def cmd_oracle(args) -> int:
    if args.witness and args.method != "exact":
        raise ValidationError("--witness needs --method exact")
    if args.seed is not None and args.method != "pincer":
        raise ValidationError("--seed needs --method pincer")
    if args.max_systems is not None and args.method != "exact":
        raise ValidationError("--max-systems needs --method exact")
    if args.complete is not None:
        g = complete_graph(args.complete)
        print(f"formula={genus_formula_reference('complete', args.complete)}")
    elif args.complete_bipartite is not None:
        m, n = args.complete_bipartite
        g = complete_bipartite_graph(m, n)
        print(f"formula={genus_formula_reference('complete_bipartite', m, n)}")
    elif args.infile:
        g = _load_graph_file(args.infile, ("bipartite",))
    else:
        raise ValidationError("need --in, --complete, or --complete-bipartite")
    budget = SearchBudget(restarts=args.restarts)
    if args.max_systems is not None:
        budget = replace(budget, max_systems=args.max_systems)
    if args.method == "exact":
        if args.witness:
            genus, rot = minimum_genus_rotation(g, budget)
            with open(args.witness, "w") as fh:
                rotation_to_text(rot, fh)
        else:
            genus = exact_genus(g, budget)
        print(f"genus={genus}")
    else:
        res = pincer_genus(g, budget, args.seed or 0)
        print(f"lower={res.lower}")
        print(f"upper={res.upper}")
        print(f"exact={int(res.exact)}")
    return 0


def cmd_predict(args) -> int:
    if args.n1 is None or args.n2 is None or args.p is None:
        raise ValidationError("predict needs --n1 --n2 --p")
    p = parse_p(args.p, args.n1)
    res = regime_classify(args.n1, args.n2, p)
    pred = prediction_for(res, args.n1, args.n2, p)
    print(f"regime={res.label()}")
    print(f"prediction={pred:.6g}")
    print(f"prediction_nonorientable={2 * pred:.6g}")
    return 0


def _cell_key(cell) -> tuple[str, ...]:
    """(n1, n2, p, i, seed) as they are written to the CSV."""
    params, i = cell
    return tuple(csv_key(params.n1, params.n2, params.p, i, params.seed))


def _experiment_cell(cell) -> tuple[list[str], str]:
    """The CSV row of one cell and its report, empty when the cell
    succeeded; any exception becomes an `error` row."""
    params, i = cell
    try:
        g = gen_random_bipartite(params)
        cfg = PipelineConfig(seed=params.seed, p=params.p)
        est = estimate_genus(g, i, cfg)
        row = est.csv_row()
    except Exception as exc:
        return _error_row(cell, exc)
    row.append(datetime.now(timezone.utc).isoformat(timespec="seconds"))
    return row, ""


def _error_row(cell, exc: Exception) -> tuple[list[str], str]:
    """The `error` row of a cell that failed with exc, and its report:
    one line naming the exception, then its traceback unless it is a
    refusal."""
    key = _cell_key(cell)
    report = f"cell ({','.join(key)}) failed: {type(exc).__name__}: {exc}"
    if not isinstance(exc, (GuardError, ValidationError)):
        report += "\n" + "".join(traceback.format_exception(exc)).rstrip("\n")
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return [*key] + [""] * (len(CSV_COLUMNS) - len(key) - 1) + ["error", stamp], report


def _pool_rows(todo: list, workers: int):
    """The (row, report) of each cell in todo, in cell order, from a pool
    of `workers` processes. A dying worker breaks the pool: the finished
    rows are kept, the first cell without a row runs alone in a pool of
    one, where a dying worker gives it an `error` row, and a fresh pool
    takes the rest. Closing the generator cancels the unstarted cells."""
    done, k = {}, 0  # done: the rows that finished in a broken pool
    while k < len(todo):
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = {}
            with contextlib.suppress(BrokenExecutor):  # a worker died as cells were queued
                futures.update((j, pool.submit(_experiment_cell, todo[j]))
                               for j in range(k, len(todo)) if j not in done)
            for k in range(k, len(todo)):
                if k not in done and (k not in futures or futures[k].exception()):
                    break
                yield done.pop(k) if k in done else futures.pop(k).result()
            else:
                return
        finally:
            pool.shutdown(cancel_futures=True)  # a cell queued as it broke can stay pending
        done.update((j, f.result()) for j, f in futures.items()  # the cells after k
                    if f.done() and not f.cancelled() and not f.exception())
        with ProcessPoolExecutor(max_workers=1) as pool:
            future = pool.submit(_experiment_cell, todo[k])
        yield _error_row(todo[k], exc) if (exc := future.exception()) else future.result()
        k += 1


def _resume(path: str) -> tuple[set[tuple[str, ...]], str]:
    """Keys, the CELL_COLUMNS fields, of the complete rows already in the CSV
    at `path`, and the header lines (SCHEMA_LINE, then the
    EXPERIMENT_COLUMNS line) that it still lacks.

    A last line without its newline was torn by an interrupted write: it
    is cut from the file, so its row or header line is written again. A
    row counts as done only when it has every one of the
    EXPERIMENT_COLUMNS fields. A file whose complete lines are not the
    header lines, a first part of them, or the header lines and more is
    no experiment CSV, and is refused untouched.
    """
    header = f"{SCHEMA_LINE}\n{','.join(EXPERIMENT_COLUMNS)}\n"
    try:
        with open(path, "rb+") as fh:
            raw = fh.read()
            data = raw[:raw.rfind(b"\n") + 1]
            if not (header.encode().startswith(data) or data.startswith(header.encode())):
                raise ValidationError(f"{path} is not a bigenus experiment CSV")
            if data != raw:
                fh.truncate(len(data))
    except FileNotFoundError:
        return set(), header
    rows = (line.split(",") for line in data[len(header):].decode().splitlines())
    keys = {tuple(r[:len(CELL_COLUMNS)]) for r in rows if len(r) == len(EXPERIMENT_COLUMNS)}
    return keys, header[len(data):]


def _config_ints(cfg: dict[str, str], key: str, default: str) -> list[int]:
    """The comma-separated integers of config key `key`."""
    text = cfg.get(key, default)
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"{key} must be integers separated by commas, "
                              f"got {text!r}") from None


def _config_int(cfg: dict[str, str], key: str, default: str) -> int:
    text = cfg.get(key, default)
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"{key} must be an integer, got {text!r}") from None


def cmd_experiment(args) -> int:
    cfg = parse_config(args.config)
    unknown = set(cfg) - set(EXPERIMENT_KEYS)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key in ("n1", "n2", "p", "out"):
        if key not in cfg:
            raise ValidationError(f"config is missing {key!r}")
    n1s = _config_ints(cfg, "n1", "")
    n2s = _config_ints(cfg, "n2", "")
    p_tokens = [tok.strip() for tok in cfg["p"].split(",") if tok.strip()]
    i_vals = _config_ints(cfg, "i", "1")
    trials = _config_int(cfg, "trials", "1")
    base_seed = _config_int(cfg, "seed", "0")
    out = args.out or cfg["out"]
    workers = _config_int(cfg, "workers", "1")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    # the pool starts all its workers at the first task
    cpus = os.cpu_count() or 1
    if workers > cpus:
        raise ValidationError(f"workers must be at most {cpus}, the CPU count")
    if not (n1s and n2s and p_tokens and i_vals):
        raise ValidationError("empty experiment grid")

    # Every setting and model cell is validated before the CSV is opened,
    # so a bad config is refused whole instead of leaving error rows
    # behind that a resumed run would count as done.
    if min(i_vals) < 1:
        raise ValidationError(f"i must be >= 1, got {min(i_vals)}")
    # cells that write one key, as a repeated grid value does, are one cell
    cells = {}
    for n1 in n1s:
        for n2 in n2s:
            for tok in p_tokens:
                try:
                    params = GenParams(n1, n2, parse_p(tok, n1))
                except ValidationError as exc:
                    raise ValidationError(
                        f"grid cell n1={n1} n2={n2} p={tok}: {exc}") from None
                for i in i_vals:
                    for t in range(trials):
                        cell = (replace(params, seed=base_seed + t), i)
                        cells.setdefault(_cell_key(cell), cell)

    done, missing = _resume(out)
    todo = [c for key, c in cells.items() if key not in done]
    print(f"cells={len(cells)} todo={len(todo)}", file=sys.stderr)

    with open(out, "a") as fh:
        fh.write(missing)
        for row, report in _pool_rows(todo, workers):
            if report:
                print(report, file=sys.stderr)
            fh.write(",".join(row) + "\n")
            fh.flush()
    print(f"wrote {len(todo)} rows to {out}", file=sys.stderr)
    return 0


def _add_model_flags(sub, with_i=True):
    sub.add_argument("--n1", type=int, default=None)
    sub.add_argument("--n2", type=int, default=None)
    sub.add_argument("--p", type=str, default=None,
                     help="edge probability, literal or nexp:E for n1**E")
    sub.add_argument("--seed", type=int, default=None, help="default 0")
    if with_i:
        sub.add_argument("--i", type=int, default=1,
                         help="trail half-length parameter (faces have length 2i+2)")
    sub.add_argument("--in", dest="infile", default=None,
                     help="read a bipartite graph file instead of generating "
                          "(trails and match also read a digraph file)")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bigenus",
        description="Genus bounds and embeddings of random bipartite graphs",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("generate", help="write a random or standard bipartite graph")
    _add_model_flags(sub, with_i=False)
    sub.add_argument("--standard", action="store_true", default=None,
                     help="deterministic expected-class-size graph instead of random")
    sub.set_defaults(func=cmd_generate)

    sub = subs.add_parser("orient", help="orient each edge by a seeded fair coin")
    _add_model_flags(sub, with_i=False)
    sub.set_defaults(func=cmd_orient)

    sub = subs.add_parser("trails", help="enumerate closed trails of length 2i+2")
    _add_model_flags(sub)
    sub.set_defaults(func=cmd_trails)

    sub = subs.add_parser("match", help="arc-disjoint trail matching")
    _add_model_flags(sub)
    sub.set_defaults(func=cmd_match)

    sub = subs.add_parser("estimate", help="full pipeline: genus bounds and prediction")
    _add_model_flags(sub)
    sub.set_defaults(func=cmd_estimate)

    sub = subs.add_parser("oracle", help="exact genus or pincer bounds of a small graph")
    sub.add_argument("--in", dest="infile", default=None)
    sub.add_argument("--complete", type=int, default=None, metavar="N")
    sub.add_argument("--complete-bipartite", type=int, nargs=2, default=None,
                     metavar=("M", "N"))
    sub.add_argument("--method", choices=("exact", "pincer"), default="exact")
    sub.add_argument("--seed", type=int, default=None, help="--method pincer only")
    sub.add_argument("--max-systems", type=int, default=None, help="--method exact only")
    sub.add_argument("--restarts", type=int, default=SearchBudget.restarts)
    sub.add_argument("--witness", default=None,
                     help="write a minimum-genus rotation system here "
                          "(--method exact only)")
    sub.set_defaults(func=cmd_oracle)

    sub = subs.add_parser("predict", help="regime tag and predicted genus")
    sub.add_argument("--n1", type=int, default=None)
    sub.add_argument("--n2", type=int, default=None)
    sub.add_argument("--p", type=str, default=None)
    sub.set_defaults(func=cmd_predict)

    sub = subs.add_parser("experiment", help="grid sweep to CSV, resumable")
    sub.add_argument("--config", required=True, help="key=value file")
    sub.add_argument("--out", default=None, help="override config out=")
    sub.set_defaults(func=cmd_experiment)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:
            check_seed(args.seed)
        return args.func(args)
    except (GuardError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
