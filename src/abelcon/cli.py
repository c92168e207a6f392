"""Command-line front door.

Exit codes: 0 success or witness found; 1 definitive no (unsatisfiable
abelian shadow, or a verification failure); 2 no solution up to the bound
(unknown); 3 and above for usage, parse, or input errors. Search statistics
go to stderr so stdout stays byte-identical across runs.
"""

from __future__ import annotations

import argparse
import os
import sys

from .abelian import exponent_sum, format_linear_system, solve_linear_system
from .compilers import (
    CompiledReduction,
    compile_h10_free,
    compile_h10_raag,
    decode_solution,
    parse_h10,
    reduce_finite_ab,
    witness_h10,
)
from .errors import AbelconError, ParseError
from .graphs import direct_product_decomposition, weak_modules
from .instances import abelian_shadow, flatten, parse_instance, print_instance
from .search import (
    DEFAULT_CAP,
    UNSAT_BY_SHADOW,
    WITNESS,
    check_radius,
    search,
)
from .words import (
    Presentation,
    centralizer_generators,
    content_lines,
    format_int,
    format_word,
    geodesic_length,
    parse_int,
    parse_word,
    parse_word_at,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_graph(path: str) -> Presentation:
    with open(path, encoding="utf-8") as fh:
        return Presentation.from_text(fh.read())


def _load_instance(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read(), base_dir=os.path.dirname(path) or ".")


def _parse_int_solution(text: str) -> dict[str, int]:
    out = {}
    for piece in text.split(","):
        name, _, value = piece.partition("=")
        name = name.strip()
        if name in out:
            raise ParseError(f"{name!r} is given twice in {text!r}")
        out[name] = parse_int(value.strip(), "bad integer value in {!r}", token=piece.strip())
    return out


def _parse_assignment(inst, text: str):
    """``name = word`` lines, each naming a distinct variable of inst; an
    error names its line."""
    out = {}
    for ln, line in content_lines(text):
        name, sep, word = line.partition("=")
        if not sep:
            raise ParseError(f"bad assignment line {line!r}", line=ln)
        value = parse_word_at(inst.presentation, word, ln)
        name = name.strip()
        if name in out:
            raise ParseError(f"{name!r} is given twice", line=ln)
        if name not in inst.variables:
            raise ParseError(f"{name!r} is not a variable of the instance", line=ln)
        out[name] = value
    return out


def _print_assignment(asg, variables):
    for v in variables:
        print(f"{v} = {format_word(asg[v])}")


def _load_reduction(inst_path: str, sidecar_path: str) -> CompiledReduction:
    inst = _load_instance(inst_path)
    with open(sidecar_path, encoding="utf-8") as fh:
        return CompiledReduction.from_sidecar_json(fh.read(), inst)


def _decoded_tuple(cr: CompiledReduction, decoded: dict[str, int]) -> str:
    return "(" + ",".join(format_int(decoded[v]) for v in cr.atomized.source_vars) + ")"


def main(argv=None) -> int:
    parser = _Parser(prog="abelcon")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("normalize", help="canonical form of a word")
    sp.add_argument("graph")
    sp.add_argument("word", nargs="+")

    sp = sub.add_parser("length", help="geodesic length of a word")
    sp.add_argument("graph")
    sp.add_argument("word", nargs="+")

    sp = sub.add_parser("absum", help="exponent sum of a vertex in a word")
    sp.add_argument("graph")
    sp.add_argument("vertex")
    sp.add_argument("word", nargs="+")

    sp = sub.add_parser("weak-modules", help="weak modules of the graph")
    sp.add_argument("graph")

    sp = sub.add_parser("decompose", help="direct product (join) decomposition")
    sp.add_argument("graph")

    sp = sub.add_parser("centralizer", help="centralizer description of an element")
    sp.add_argument("graph")
    sp.add_argument("word", nargs="+")

    sp = sub.add_parser("flatten", help="rewrite an instance into short-form equations")
    sp.add_argument("instance")

    sp = sub.add_parser("shadow", help="abelian shadow linear systems per disjunct")
    sp.add_argument("instance")

    sp = sub.add_parser("solve", help="bounded search for a satisfying assignment")
    sp.add_argument("instance")
    sp.add_argument("--bound", type=int, required=True)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)

    for name in ("compile-h10", "compile-h10-raag"):
        sp = sub.add_parser(name, help="compile integer polynomial equations")
        sp.add_argument("h10file")
        sp.add_argument("--target", required=True, help="graph file of the target group")
        sp.add_argument("--out", required=True, help="compiled instance output path")
        sp.add_argument("--sidecar", required=True, help="decode map and witness recipe path")
        if name == "compile-h10":
            sp.add_argument("--mode", choices=["pure-ab", "native-expsum"],
                            default="pure-ab")

    sp = sub.add_parser("reduce-finite-ab",
                        help="rewrite ab constraints into coset constraints")
    sp.add_argument("instance")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("witness", help="assignment from an integer solution")
    sp.add_argument("instance")
    sp.add_argument("sidecar")
    sp.add_argument("--solution", required=True, help="e.g. x=2,y=3,z=6")

    sp = sub.add_parser("decode", help="integers from a satisfying assignment")
    sp.add_argument("instance")
    sp.add_argument("sidecar")
    sp.add_argument("--assignment", required=True, help="file of VAR = word lines")

    sp = sub.add_parser("verify", help="round-trip check of a compiled reduction")
    sp.add_argument("instance")
    sp.add_argument("sidecar")
    sp.add_argument("--bound", type=int, required=True)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sp.add_argument("--hint", default=None, help="integer solution, e.g. x=2,y=3,z=6")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _dispatch(args)
    except (AbelconError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "normalize":
        p = _load_graph(args.graph)
        print(format_word(parse_word(p, " ".join(args.word))))
        return EXIT_OK

    if cmd == "length":
        p = _load_graph(args.graph)
        print(format_int(geodesic_length(p, parse_word(p, " ".join(args.word)))))
        return EXIT_OK

    if cmd == "absum":
        p = _load_graph(args.graph)
        print(format_int(exponent_sum(p, parse_word(p, " ".join(args.word)), args.vertex)))
        return EXIT_OK

    if cmd == "weak-modules":
        p = _load_graph(args.graph)
        for m in weak_modules(p):
            print(m)
        return EXIT_OK

    if cmd == "decompose":
        p = _load_graph(args.graph)
        for comp in direct_product_decomposition(p):
            print("{" + ",".join(sorted(comp, key=p.index.__getitem__)) + "}")
        return EXIT_OK

    if cmd == "centralizer":
        p = _load_graph(args.graph)
        desc = centralizer_generators(p, parse_word(p, " ".join(args.word)))
        lines = [f"conjugator {format_word(desc.conjugator)}"]
        lines += [f"cyclic {format_word(root)} exponent {format_int(exp)}"
                  for root, exp in zip(desc.cyclic_parts, desc.exponents)]
        lines.append("link {" + ",".join(sorted(desc.link_vertices, key=p.index.__getitem__)) + "}")
        print("\n".join(lines))
        return EXIT_OK

    if cmd == "flatten":
        inst = _load_instance(args.instance)
        sys.stdout.write(print_instance(flatten(inst)))
        return EXIT_OK

    if cmd == "shadow":
        inst = _load_instance(args.instance)
        systems = abelian_shadow(inst)
        verdicts = [solve_linear_system(system) for system in systems]
        text = "".join(f"disjunct {i}: {verdict.status}\n{format_linear_system(system)}"
                       for i, (system, verdict) in enumerate(zip(systems, verdicts)))
        sys.stdout.write(text)  # written whole: a formatting error leaves stdout empty
        return EXIT_OK if any(verdicts) else EXIT_NO

    if cmd == "solve":
        inst = _load_instance(args.instance)
        report = search(inst, args.bound, cap=args.cap)
        print(f"stats nodes={report.nodes} millis={report.millis}", file=sys.stderr)
        if report.verdict == WITNESS:
            _print_assignment(report.assignment, inst.variables)
            return EXIT_OK
        if report.verdict == UNSAT_BY_SHADOW:
            print("UNSAT (abelian shadow)")
            return EXIT_NO
        print(f"no solution up to bound {args.bound}")
        return EXIT_UNKNOWN

    if cmd in ("compile-h10", "compile-h10-raag"):
        with open(args.h10file, encoding="utf-8") as fh:
            h = parse_h10(fh.read())
        target = _load_graph(args.target)
        if cmd == "compile-h10":
            cr = compile_h10_free(h, target, mode=args.mode)
        else:
            cr = compile_h10_raag(h, target)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(print_instance(cr.instance))
        with open(args.sidecar, "w", encoding="utf-8") as fh:
            fh.write(cr.sidecar_json())
        print(f"compiled {len(cr.source.polynomials)} equations into "
              f"{len(cr.instance.variables)} group variables")
        return EXIT_OK

    if cmd == "reduce-finite-ab":
        inst = _load_instance(args.instance)
        text = print_instance(reduce_finite_ab(inst))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK

    if cmd == "witness":
        cr = _load_reduction(args.instance, args.sidecar)
        asg = witness_h10(cr, _parse_int_solution(args.solution))
        _print_assignment(asg, cr.instance.variables)
        return EXIT_OK

    if cmd == "decode":
        cr = _load_reduction(args.instance, args.sidecar)
        with open(args.assignment, encoding="utf-8") as fh:
            asg = _parse_assignment(cr.instance, fh.read())
        decoded = decode_solution(cr, asg)
        sys.stdout.write("".join(f"{v} = {format_int(decoded[v])}\n" for v in cr.atomized.source_vars))
        return EXIT_OK

    if cmd == "verify":
        cr = _load_reduction(args.instance, args.sidecar)
        if args.hint:
            check_radius(args.bound, args.cap)
            hint = _parse_int_solution(args.hint)
            decoded = decode_solution(cr, witness_h10(cr, hint))
            if decoded != hint:
                print("FAIL: decoded hint mismatch", file=sys.stderr)
                return EXIT_NO
            # The hint's assignment satisfies the instance, and the abelian
            # shadow is sound, so a search could only end in OK: skip it.
            print(_decoded_tuple(cr, decoded))
            print("OK")
            return EXIT_OK
        report = search(cr.instance, args.bound, cap=args.cap)
        print(f"stats nodes={report.nodes} millis={report.millis}", file=sys.stderr)
        if report.verdict == UNSAT_BY_SHADOW:
            print("FAIL: compiled instance has unsatisfiable shadow", file=sys.stderr)
            return EXIT_NO
        if report.verdict != WITNESS:
            print(f"no witness up to bound {args.bound}")
            return EXIT_UNKNOWN
        print(_decoded_tuple(cr, decode_solution(cr, report.assignment)))
        print("OK")
        return EXIT_OK

    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
