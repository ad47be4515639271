"""Command-line interface: compute competition graphs, classify digraphs,
enumerate and generate constructions, and drive the claim verifier.

Exit codes: 0 success / verified, 1 usage or input error, 2 verification
found counterexamples, 130 interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import tempfile

from . import classify as _classify
from . import competition as _competition
from . import digraph as _digraph
from . import generate as _generate
from . import verify as _verify
from .digraph import InputError


@contextlib.contextmanager
def _writing(path: str):
    """Turn an ``OSError`` raised while writing ``path`` into an ``InputError`` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_output(text: str, path: str | None) -> None:
    """Write to stdout, or atomically (temp + rename) to ``path``."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    with _writing(path):
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".stargen-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _read_digraph(path: str) -> _digraph.Digraph:
    try:
        with open(path, encoding="utf-8") as handle:
            return _digraph.parse_edge_list(handle.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise InputError(f"cannot read {path}: not UTF-8 text") from None


# Most m values one --m may list: each one is a pass over every digraph,
# and a range is expanded into a list before the scan starts.
MAX_M_VALUES = 1000


def _parse_m_spec(spec: str) -> list[int]:
    """Parse '3', '2,3,5', or '1..6' into a list of m values."""
    values: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        try:
            lo, hi = part.split("..", 1) if ".." in part else (part, part)
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise InputError(f"cannot parse m value {part!r} in {spec!r}") from None
        if lo > hi:
            raise InputError(f"cannot parse m value {part!r} in {spec!r}: the range descends")
        if len(values) + hi - lo + 1 > MAX_M_VALUES:
            raise InputError(f"m specification {spec!r} lists more than {MAX_M_VALUES} values")
        values.extend(range(lo, hi + 1))
    return values


def _cmd_compete(args) -> int:
    d = _read_digraph(args.input)
    g = _competition.competition_graph(d, args.m)
    tf, triangle = _competition.is_triangle_free(g)
    sd = _competition.star_decomposition(g, _digraph.sources(d))
    notes = [f"# triangle-free: {'yes' if tf else f'no, triangle {sorted(triangle)}'}"]
    if sd:
        stars = ", ".join(f"{s.center}->{sorted(s.leaves)}" for s in sd.stars)
        notes.append(f"# star decomposition: {stars}")
    else:
        notes.append(
            f"# star decomposition: failed on component "
            f"{sorted(sd.component)} ({sd.reason})"
        )
    if args.format == "dot":
        body = _competition.graph_to_dot(g)
        text = body + "".join(f"// {line[2:]}\n" for line in notes)
    else:
        text = _competition.format_graph_edge_list(g) + "\n".join(notes) + "\n"
    _write_output(text, args.output)
    return 0


def _cmd_classify(args) -> int:
    d = _read_digraph(args.input)
    report = _classify.classify_star_generating(d)
    data = report.to_dict()
    if args.json:
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    else:
        lines = [
            f"{name}: " + ("ok" if data[name] else f"violated {data['witnesses'][name]}")
            for name in _classify._CONDITIONS
        ]
        lines.append(f"star_generating: {'yes' if data['star_generating'] else 'no'}")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    return 0


def _render_digraphs(named: list[tuple[str, _digraph.Digraph]], fmt: str, labels=None) -> str:
    """``# name`` edge lists or DOT graphs; ``labels`` maps a name to its vertex labels."""
    chunks = []
    for name, d in named:
        vertex_labels = labels[name] if labels else None
        if fmt == "dot":
            chunks.append(_digraph.to_dot(d, labels=vertex_labels, name=name))
        else:
            header = f"# {name}"
            if vertex_labels:
                header += " (" + ", ".join(f"{v}={s}" for v, s in vertex_labels.items()) + ")"
            chunks.append(header + "\n" + _digraph.format_edge_list(d))
    return "\n".join(chunks)


def _partition(parts) -> tuple[str, _digraph.Digraph]:
    """The named digraph that ``enumerate`` and ``generate`` emit for a partition."""
    return "partition_" + "_".join(map(str, parts)), _generate.star_generating_from_partition(parts)


# Most digraphs a listing may hold: all are built before the first is written.
MAX_LISTED = 100_000


def _cmd_enumerate(args) -> int:
    _digraph._check_count(args.n, 2, "order")
    _digraph._check_order(args.n)
    count = _generate._partition_count(args.n - 1)
    if args.count_only:
        _write_output(f"{count}\n", args.output)
        return 0
    if count > MAX_LISTED:
        raise InputError(f"order {args.n} has {count} digraphs, over {MAX_LISTED}; use --count-only")
    named = [_partition(parts) for parts in _generate.partitions(args.n - 1)]
    _write_output(_render_digraphs(named, args.format), args.output)
    return 0


def _cmd_generate(args) -> int:
    if args.partition is not None:
        try:
            parts = tuple(int(p) for p in args.partition.split(","))
        except ValueError:
            raise InputError(f"cannot parse partition {args.partition!r}") from None
        _digraph._check_order(sum(parts) + 1)
        named = _partition(parts)
    else:
        k, l = args.lemma_kl
        _digraph._check_order(k + l + 1)
        named = (f"kl_{k}_{l}", _generate.lemma_kl_digraph(k, l))
    _write_output(_render_digraphs([named], args.format), args.output)
    return 0


def _cmd_figures(args) -> int:
    figures = _generate.figure_digraphs()
    selected = sorted(figures) if args.name is None else [args.name]
    named = [(name, figures[name]) for name in selected]
    _write_output(_render_digraphs(named, args.format, _generate.figure_labels()), args.output)
    return 0


def _cmd_verify(args) -> int:
    claim_ids = args.claim
    if args.n_max >= 5 and not args.large:
        kinds = {cid: _verify._lookup(cid).kind for cid in claim_ids}
        # a grid claim is built whole, sampled or not
        grid = [cid for cid, kind in kinds.items() if kind == "grid"]
        if grid:
            raise InputError(
                f"n_max={args.n_max} builds the {args.n_max} x {args.n_max} grid of "
                f"(k, l) constructions for {grid[0]}; pass --large to confirm"
            )
        # a scan without a count, and a census with or without one, scan whole orders
        if args.count is None or "census" in kinds.values():
            raise InputError(
                f"n_max={args.n_max} scans (2**{args.n_max} - 1)**{args.n_max} "
                f"digraphs per order; pass --large to confirm"
            )
    m_values = _parse_m_spec(args.m) if args.m else []
    created = False
    if args.report:
        # a path that cannot be written fails before the scan, not after it
        created = not os.path.exists(args.report)
        with _writing(args.report):
            open(args.report, "a", encoding="utf-8").close()
    try:
        reports = _verify.verify_claims(
            claim_ids,
            args.n_max,
            m_values,
            seed=args.seed,
            sample_count=args.count,
        )
    except BaseException:
        # a refused, failed or interrupted run leaves no empty report behind
        if created:
            os.unlink(args.report)
        raise
    if args.report:
        with _writing(args.report):
            _verify.write_report_lines(reports, args.report)
    failed = False
    for rep in reports:
        status = "verified" if rep.verified else f"{len(rep.counterexamples)} counterexamples"
        print(
            f"{rep.claim_id}: {status} "
            f"({rep.digraphs_examined} digraphs, {rep.hypothesis_hits} hypothesis hits, "
            f"{rep.elapsed:.1f}s)"
        )
        for entry in rep.counterexamples[:10]:
            print(f"  counterexample: {json.dumps(entry, sort_keys=True)}")
        if rep.boundary_instances:
            print(f"  boundary instances below the m range: {len(rep.boundary_instances)}")
        failed = failed or not rep.verified
    return 2 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``InputError``, exit 1; argparse would exit 2, as for counterexamples."""

    def error(self, message: str):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stargen",
        description="m-step competition graphs, star-generating digraphs, "
        "and exhaustive desk-scale verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compete", help="compute the m-step competition graph of a digraph file")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("edges", "dot"), default="edges")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_compete)

    p = sub.add_parser("classify", help="report the star-generating conditions for a digraph file")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="single-source star-generating digraphs of order n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--format", choices=("edges", "dot"), default="edges")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("generate", help="emit a partition-based or (k,l) construction")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--partition", help="comma-separated nonincreasing parts, e.g. 2,1")
    mode.add_argument("--lemma-kl", nargs=2, type=int, metavar=("K", "L"))
    p.add_argument("--format", choices=("edges", "dot"), default="edges")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="run catalog claims over bounded digraph spaces")
    p.add_argument("--claim", action="append", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--m", help="m values, e.g. '1..6' or '2,3,5'")
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int, help="sample this many digraphs instead of scanning all")
    p.add_argument(
        "--large",
        action="store_true",
        help="allow n_max >= 5 for scans without --count, thm_3_2 and the lemma_2_2 grid",
    )
    p.add_argument("--report", help="append JSON-lines reports to this file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("figures", help="dump the built-in worked-example digraphs")
    p.add_argument("--name", choices=sorted(_generate._FIGURES))
    p.add_argument("--format", choices=("edges", "dot"), default="edges")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_figures)

    return parser


# built on first use and kept: parse_args leaves the parser unchanged, and
# building it (about 2 ms) is a large share of a small verify call
_parser = functools.cache(build_parser)


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
