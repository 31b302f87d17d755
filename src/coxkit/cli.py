"""Command-line front end.

Subcommands: element, product, coproduct, series, expand, table, hecke,
verify.  Only :mod:`coxkit.systems` and :mod:`coxkit.freemodule` are
imported with this module; each subcommand imports the modules it uses
when it runs, so a process compiles only what its command needs.  Output
is deterministic; ``--format json`` emits the documented schemas.  Exit
status: 0 success, 1 verification failure, 2 argument or
parse error, 3 enumeration cap exceeded, 4 internal error (an unexpected
exception, reported in one line without a traceback).  A reader that
closes stdout early is not an error: the command keeps its own status.

One option table (:data:`COMMANDS`) describes every subcommand's options.
:func:`_parse_table` reads a well-formed argv off it directly;
:func:`build_parser` makes the argparse parser from the same rows, and
argparse parses only what the table parser leaves: help, errors and
unusual forms such as abbreviated option names.  So ``argparse`` is
imported only then, and ``json`` only for JSON output.

Window-notation arguments are ASCII comma-separated signed integers,
optionally parenthesized ("2,-4,-3,1" or "(2,-4,-3,1)"); subsets are sorted
generator indices ("0,2"); (pseudo-)compositions are parenthesized
("(0,2,1)").
"""

from __future__ import annotations

import math
import operator
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .freemodule import FormalVector
from .systems import (
    CapExceededError,
    CoxeterSystem,
    Element,
    all_subsets,
    check_word_cube,
    composition_from_descents,
    format_window,
    is_valid_composition,
    parse_ints,
    parse_window,
)

if TYPE_CHECKING:
    import argparse

    from .hecke import HModule
    from .qsym import CPoly

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

#: Window-size caps per family; the verification suites stay interactive
#: below them.  Override with --max-window, which verify lacks
#: (COXKIT_MAX_ORDER bounds the enumerations themselves, not these caps).
DEFAULT_WINDOW_CAPS = {"A": 7, "B": 5, "D": 5}


def _system(args) -> CoxeterSystem:
    family = args.type
    rank = args.rank
    system = CoxeterSystem.of_rank(family, rank)
    cap = getattr(args, "max_window", None)
    cap = DEFAULT_WINDOW_CAPS[family] if cap is None else cap
    if system.n > cap:
        hint = " (raise with --max-window)" if hasattr(args, "max_window") else ""
        raise CapExceededError(f"window size {system.n} exceeds the {family} cap {cap}{hint}")
    return system


def _parse_subset(text: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(int(p) for p in text.split(","))


def _element_json(w: Element) -> list[int]:
    return list(w.window)


def _vector_json(system: CoxeterSystem, vec: FormalVector, basis: str) -> dict:
    terms = []
    for key, coeff in vec.items():
        if basis == "element":
            jkey = _element_json(key)
        else:
            jkey = [_element_json(key[0]), _element_json(key[1])]
        terms.append({"key": jkey, "coeff": coeff if isinstance(coeff, int) else str(coeff)})
    return {
        "system": {"family": system.family, "rank": system.rank},
        "basis": basis,
        "terms": terms,
    }


def _write(chunks: Iterable[str]) -> None:
    """The one printer: write ``chunks`` to stdout and flush.  A reader that
    closes the pipe early ends the output, not the command: stdout is then
    pointed at os.devnull, so the rest is neither built nor reported at exit."""
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(args, payload: Callable[[], dict], text_lines: Callable[[], list[str]]) -> None:
    """Print the one output format asked for; only that one is built."""
    if args.format == "json":
        import json
        _write((json.dumps(payload(), sort_keys=True), "\n"))
    else:
        lines = text_lines()
        _write(("\n".join(lines), "\n") if lines else ())


# -- subcommands -------------------------------------------------------------------


def cmd_element(args) -> int:
    system = _system(args)
    w = parse_window(system, args.window)
    if args.op == "length":
        value, text = w.length(), str(w.length())
    elif args.op == "descents":
        value = sorted(w.descent_set())
        text = ",".join(map(str, value))
    elif args.op == "inverse":
        v = w.inverse()
        value, text = _element_json(v), format_window(v.window)
    elif args.op == "reduced-word":
        value = list(w.reduced_word())
        text = ",".join(map(str, value))
    else:
        if args.right is None:
            raise ValueError("compose needs --right")
        v = w * parse_window(system, args.right)
        value, text = _element_json(v), format_window(v.window)
    _emit(args, lambda: {"op": args.op, "value": value}, lambda: [text])
    return EXIT_OK


def cmd_product(args) -> int:
    from . import words as wd
    name = args.family.removeprefix("shuffle").removeprefix("cup")
    flavor = wd.FLAVORS[name]
    lwin, rwin = parse_ints(args.left), parse_ints(args.right)
    u = CoxeterSystem(flavor.family, len(lwin)).element(lwin)
    v = CoxeterSystem(flavor.right, len(rwin)).element(rwin)
    vec = wd.PRODUCTS[args.family](name, u, v)
    out_system = next(iter(vec.terms)).system if vec.terms else u.system
    _emit(args, lambda: _vector_json(out_system, vec, "element"),
          lambda: [f"{coeff}\t{format_window(k.window)}" for k, coeff in vec.items()]
          + [f"# {len(vec)} terms"])
    return EXIT_OK


def cmd_coproduct(args) -> int:
    from . import words as wd
    name = args.family.removeprefix("shuffle").removeprefix("cup")
    flavor = wd.FLAVORS[name]
    win = parse_ints(args.arg)
    u = CoxeterSystem(flavor.family, len(win)).element(win)
    vec = wd.COPRODUCTS[args.family](name, u)
    if args.split is not None:
        from . import series as sr
        vec = sr.graded_pieces(vec).get(args.split, FormalVector(kind="pair"))
    _emit(args, lambda: _vector_json(u.system, vec, "pair"),
          lambda: [f"{coeff}\t{format_window(a.window)} (x) {format_window(b.window)}"
                   for (a, b), coeff in vec.items()] + [f"# {len(vec)} terms"])
    return EXIT_OK


SERIES_KINDS = ("sA", "hA", "sB", "hB", "sD", "hD")


def cmd_series(args) -> int:
    from . import series as sr
    from .roots import lattice_runs
    family = args.kind[-1]
    alpha = _parse_index(args.key)
    system = CoxeterSystem(family, sum(alpha))
    if not is_valid_composition(system, alpha):
        raise ValueError(f"{alpha} is not a valid index for family {family}")
    n, window = system.n, args.window
    check_word_cube(n, window)
    # a valid key's descents are generators, so the roots are never None;
    # lattice points are distinct, so every coefficient is 1
    runs = lattice_runs(system, sr.basis_roots(system, args.kind[0], alpha), window)
    count = sum(hi - lo + 1 for _, lo, hi in runs) if n else 1

    def text_lines() -> list[str]:
        # one block of lines per run: its prefix, then each of its letters
        if not n:
            return ["1\t", "# 1 words"]
        letters = [str(v) for v in range(-window, window + 1)]  # v at index v + window
        blocks = []
        for p, lo, hi in runs:
            head = "1\t" + "".join([letters[v + window] + "," for v in p])
            blocks.append(head + ("\n" + head).join(letters[lo + window:hi + window + 1]))
        return [*blocks, f"# {count} words"]

    def payload() -> dict:
        words = [[*p, v] for p, lo, hi in runs for v in range(lo, hi + 1)] if n else [[]]
        return {"degree": n, "window": window,
                "terms": [{"word": word, "coeff": 1} for word in words]}

    _emit(args, payload, text_lines)
    return EXIT_OK


def _parse_index(text: str) -> tuple[int, ...]:
    """A series key or polynomial index: integers, none of them negative."""
    alpha = parse_ints(text)
    if any(part < 0 for part in alpha):
        raise ValueError(f"index {alpha} has a negative part")
    return alpha


#: The family whose (pseudo-)compositions index each quasisymmetric token.
_COMPOSITION_FAMILY = {"sA": "A", "sB": "B", "sD": "D", "M": "A", "F": "A",
                       "MB": "B", "FB": "B", "MD": "D", "FD": "D"}


def _parse_poly_token(token: str, K: int) -> CPoly:
    from . import qsym
    token = token.strip()
    if ":" in token:
        kind, key = token.split(":", 1)
    else:
        kind, key = token, ""
    kind = kind.strip()
    if kind == "x0":
        power = int(key or 1)
        if power < 0:
            raise ValueError(f"x0 power must be nonnegative, got {power}")
        return qsym.x0_power(power)
    alpha = _parse_index(key)
    if kind in _COMPOSITION_FAMILY:
        family = _COMPOSITION_FAMILY[kind]
        system = CoxeterSystem(family, sum(alpha))
        if not is_valid_composition(system, alpha):
            raise ValueError(f"{alpha} is not a valid index for family {family}")
        if kind.startswith("s"):
            from . import series as sr
            return sr.projection(family)(sr.s_basis(system, alpha, K))
    table = {
        "M": qsym.monomial_qsym,
        "F": qsym.fundamental_qsym,
        "MB": qsym.monomial_qsym_b,
        "FB": qsym.fundamental_qsym_b,
        "MD": qsym.monomial_qsym_d,
        "FD": qsym.fundamental_qsym_d,
        "h": qsym.sym_h,
        "m": qsym.sym_m,
        "p": qsym.sym_p,
        "hB": qsym.sym_h_b,
        "mB": qsym.sym_m_b,
    }
    if kind not in table:
        raise ValueError(f"unknown polynomial token kind {kind!r}")
    return table[kind](alpha, K)


def cmd_expand(args) -> int:
    from . import linalg
    K = args.window
    target = _parse_poly_token(args.target, K)
    basis_tokens = [t for t in args.basis.split(";") if t.strip()]
    basis = [_parse_poly_token(t, K) for t in basis_tokens]
    try:
        coeffs = linalg.express_in_basis(target, basis)
    except linalg.NotInSpanError:
        _emit(args, lambda: {"in_span": False}, lambda: ["not in span"])
        return EXIT_CHECK_FAILED
    _emit(args, lambda: {"in_span": True, "coefficients": [str(c) for c in coeffs],
                         "basis": basis_tokens},
          lambda: [f"{tok.strip()}: {c}" for tok, c in zip(basis_tokens, coeffs)])
    return EXIT_OK


def cmd_table(args) -> int:
    from . import descents as dsc
    system = _system(args)
    if args.table == "c":
        labels, mat = all_subsets(system), dsc.c_matrix(system)
    elif args.table == "hgram":
        labels, mat = dsc.h_gram_matrix(system)
    else:
        from . import linalg
        labels, gram = dsc.h_gram_matrix(system)
        hs = dsc.h_class_basis(system)
        ms = dsc.m_class_basis(system)
        m_in_h = linalg.express_all_in_basis([ms[mu] for mu in labels], [hs[l] for l in labels])
        # each column of coordinates on one common denominator, so that an
        # entry is an integer dot product and one exact division; an int
        # coordinate is its own numerator over 1
        columns = []
        for coeffs in m_in_h:
            den = math.lcm(*(c.denominator for c in coeffs))
            columns.append(([c.numerator * (den // c.denominator) for c in coeffs], den))
        quotients = ([linalg.exact_div(sum(map(operator.mul, scaled, gram_row)), den)
                      for scaled, den in columns] for gram_row in gram)
        mat = [[q if isinstance(q, int) else str(q) for q in row] for row in quotients]
    comps = [composition_from_descents(system, I) for I in labels]

    def text_lines() -> list[str]:
        width = max(len(str(x)) for row in mat for x in row)
        lwidth = max(len(str(c)) for c in comps)
        return [" " * lwidth + "  " + "  ".join(str(c).rjust(width + 4) for c in comps)] + [
            str(c).ljust(lwidth) + "  " + "  ".join(str(x).rjust(width + 4) for x in row)
            for c, row in zip(comps, mat)]

    _emit(args, lambda: {"labels": [list(c) for c in comps], "rows": mat, "table": args.table},
          text_lines)
    return EXIT_OK


def _parse_module(system: CoxeterSystem, spec: str, acting: frozenset[int]) -> HModule:
    from . import hecke as hk
    spec = spec.strip()
    if spec == "regular":
        return hk.regular_module(system, acting)
    if ":" not in spec:
        raise ValueError("module spec must be 'C:<subset>', 'P:<subset>' or 'regular'")
    kind, key = spec.split(":", 1)
    subset = _parse_subset(key)
    if not subset <= acting:
        raise ValueError(
            f"module label {sorted(subset)} must lie inside the acting set {sorted(acting)}"
        )
    if kind == "C":
        return hk.simple_module(system, subset, acting=acting)
    if kind == "P":
        return hk.projective_module(system, subset, carrier=acting)
    raise ValueError(f"unknown module kind {kind!r}")


def _mult_report(system: CoxeterSystem, vec: FormalVector, name: str, letter: str
                 ) -> tuple[Callable[[], dict], Callable[[], list[str]]]:
    """Multiplicities of simples (C) or projectives (P), keyed by composition:
    the two :func:`_emit` builders."""
    items = [(composition_from_descents(system, k), c) for k, c in vec.items()]
    return (lambda: {name: [{"composition": list(comp), "mult": c} for comp, c in items]},
            lambda: [f"{c}\t{letter}{comp}" for comp, c in items])


def cmd_hecke(args) -> int:
    from . import hecke as hk
    system = _system(args)
    acting = _parse_subset(args.subset) if args.subset is not None else system.generator_set
    if not acting <= system.generator_set:
        raise ValueError("subset contains unknown generators")
    module = _parse_module(system, args.module, acting if args.op != "restrict" else system.generator_set)
    if args.op == "induce":
        module = hk.induce(module)
    elif args.op == "restrict":
        module = hk.restrict(module, acting)
    if args.report == "factors":
        report = _mult_report(system, hk.composition_factors(module), "factors", "C")
    elif args.report == "multiplicities":
        report = _mult_report(system, hk.projective_multiplicities(module), "multiplicities", "P")
    elif args.report == "dim":
        report = (lambda: {"dim": module.dim}), (lambda: [str(module.dim)])
    else:
        _write(_matrices_json(module))
        return EXIT_OK
    _emit(args, *report)
    return EXIT_OK


def _matrices_json(module: HModule) -> Iterator[str]:
    """The ``--report matrices`` line of both formats: the JSON of
    {"dim": dim, "matrices": {str(s): X_s as dense rows}} with sorted keys,
    made one row at a time from the sparse columns, so no dense matrix is
    held (the B5 regular module has 5 of 3840 x 3840)."""
    import json
    yield f'{{"dim": {module.dim}, "matrices": {{'
    for k, s in enumerate(sorted(module.mats, key=str)):
        rows: list[dict] = [{} for _ in range(module.dim)]
        for j, col in module.mats[s].items():
            for i, c in col.items():
                rows[i][j] = c
        yield f'{", " if k else ""}{json.dumps(str(s))}: ['
        for i, row in enumerate(rows):
            cells = ["0"] * module.dim
            for j, c in row.items():
                cells[j] = json.dumps(c)
            yield f'{", " if i else ""}[{", ".join(cells)}]'
        yield "]"
    yield "}}\n"


def cmd_verify(args) -> int:
    from . import verify as vf
    names = sorted(vf.SUITES) if args.suite == "all" else [args.suite]
    family = args.type
    n = None
    if args.rank is not None:
        if family is None:
            raise ValueError("--rank needs --type")
        n = _system(args).n
    report = {}
    all_ok = True
    for name in names:
        checks = sorted(vf.run_suite(name, family, n), key=lambda c: c.name)
        passed = sum(1 for c in checks if c.passed)
        all_ok &= passed == len(checks)
        report[name] = {
            "checks": [
                {"name": c.name, "passed": c.passed, **({"detail": c.detail} if not c.passed else {})}
                for c in checks
            ],
            "passed": passed,
            "failed": len(checks) - passed,
        }

    def text_lines() -> list[str]:
        lines = []
        for name in names:
            r = report[name]
            lines.append(f"[{name}] {r['passed']}/{r['passed'] + r['failed']} checks passed")
            for c in r["checks"]:
                mark = "ok " if c["passed"] else "FAIL"
                lines.append(f"  {mark} {c['name']}"
                             + ("" if c["passed"] else f" -- {c.get('detail', '')}"))
        return lines

    _emit(args, lambda: {"suites": report, "ok": all_ok}, text_lines)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# -- parser ------------------------------------------------------------------------


def _count(text: str) -> int:
    """Type of the integer options: a nonnegative int.  A refusal is
    argparse's ArgumentTypeError, which argparse words as an argument error."""
    try:
        value = int(text)
        problem = f"must be nonnegative, got {value}" if value < 0 else None
    except ValueError:
        problem = f"invalid integer {text!r}"
    if problem:
        import argparse
        raise argparse.ArgumentTypeError(problem)
    return value


class Option(NamedTuple):
    """One option row, its ``dest`` argparse's own.  A name without '-' is
    a positional; ``choices`` may be a zero-argument callable, called only
    when the row is used."""
    names: tuple[str, ...]
    dest: str
    type: Optional[Callable[[str], object]]
    choices: Union[None, tuple, Callable[[], list[str]]]
    default: object
    required: bool
    help: Optional[str]

    def allowed(self) -> Optional[Iterable]:
        return self.choices() if callable(self.choices) else self.choices


def _opt(*names: str, type=None, choices=None, default=None, required=False, help=None
         ) -> Option:
    """The row of ``names``, with argparse's dest and defaults."""
    return Option(names, names[0].lstrip("-").replace("-", "_"), type, choices, default,
                  required, help)


def _product_families() -> list[str]:
    from .words import PRODUCTS
    return sorted(PRODUCTS)


def _coproduct_families() -> list[str]:
    from .words import COPRODUCTS
    return sorted(COPRODUCTS)


def _suites() -> list[str]:
    from .verify import SUITES
    return sorted(SUITES) + ["all"]


_FORMAT = _opt("--format", "--out", choices=("text", "json"), default="text",
               help="output format")
_SYSTEM = (_opt("--type", choices=("A", "B", "D"), required=True),
           _opt("--rank", type=_count, required=True),
           _opt("--max-window", type=_count, help="override the per-family window cap"))

#: Each subcommand's help line, handler and option rows, in help order.
COMMANDS = {
    "element": ("window-notation arithmetic", cmd_element, (
        _FORMAT, *_SYSTEM,
        _opt("--op", required=True,
             choices=("length", "descents", "inverse", "reduced-word", "compose")),
        _opt("window", required=True, help="comma-separated window, e.g. '2,-4,-3,1'"),
        _opt("--right", help="second operand for compose"))),
    "product": ("shuffle-style products", cmd_product, (
        _FORMAT,
        _opt("--family", required=True, choices=_product_families),
        _opt("--left", required=True),
        _opt("--right", required=True))),
    "coproduct": ("unshuffle-style coproducts", cmd_coproduct, (
        _FORMAT,
        _opt("--family", required=True, choices=_coproduct_families),
        _opt("--arg", required=True),
        _opt("--split", type=_count, help="keep one component"))),
    "series": ("truncated noncommutative basis elements", cmd_series, (
        _FORMAT,
        _opt("--kind", required=True, choices=SERIES_KINDS),
        _opt("--key", required=True, help="(pseudo-)composition, e.g. '(0,2,1)'"),
        _opt("--window", type=_count, required=True))),
    "expand": ("exact expansion in a polynomial basis", cmd_expand, (
        _FORMAT,
        _opt("--target", required=True, help="token like 'x0:2' or 'h:(1,1)'"),
        _opt("--basis", required=True,
             help="semicolon-separated tokens, e.g. 'hB:(2);hB:(1,1);hB:(0,2);hB:(0,1,1)'"),
        _opt("--window", type=_count, default=3))),
    "table": ("pairing tables", cmd_table, (
        _FORMAT, *_SYSTEM,
        _opt("--table", required=True, choices=("c", "hm", "hgram")))),
    "hecke": ("degenerate Hecke module calculus", cmd_hecke, (
        _FORMAT, *_SYSTEM,
        _opt("--op", default="none", choices=("none", "induce", "restrict")),
        _opt("--subset", help="acting generators, e.g. '1,2'"),
        _opt("--module", required=True, help="'C:<subset>', 'P:<subset>' or 'regular'"),
        _opt("--report", default="factors",
             choices=("factors", "multiplicities", "dim", "matrices")))),
    "verify": ("run named verification suites", cmd_verify, (
        _FORMAT,
        _opt("--suite", default="all", choices=_suites),
        _opt("--type", choices=("A", "B", "D")),
        _opt("--rank", type=_count))),
}


def build_parser(command: Optional[str] = None, arguments: bool = True) -> argparse.ArgumentParser:
    """The coxkit parser, made from the option rows of :data:`COMMANDS`.
    When ``command`` names a subcommand only its subparser is built, under a
    usage line that still lists every command: an argument error then reads
    as it does from the full parser.  Without ``arguments`` (for an argv that
    names no subcommand) none gets its own."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="coxkit",
        description="Exact combinatorics of (signed) permutation groups: "
        "descent algebras, shuffle structures, series realizations, and "
        "degenerate Hecke representations.",
    )
    names = [command] if command in COMMANDS else list(COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None))
    for name in names:
        help_text, fn, rows = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for row in rows if arguments else ():
            if row.names[0].startswith("-"):
                p.add_argument(*row.names, dest=row.dest, type=row.type, default=row.default,
                               required=row.required, choices=row.allowed(), help=row.help)
            else:
                p.add_argument(*row.names, help=row.help)
        p.set_defaults(fn=fn)
    return parser


def _parse_table(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse would give for a well-formed protected argv,
    read off the option rows alone, or None to leave ``argv`` to argparse.
    Well-formed: an exact command name, then '--name value' (the value not
    starting with '-') or '--name=value' (the value not starting with '-',
    or a negative window) with exact names, and for ``element`` its window,
    also as the last token after a '--'; every value passes its row's type
    and choices, and every required row is given.  Anything else, '--help'
    and abbreviations among it, is None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, fn, rows = COMMANDS[argv[0]]
    options = {name: row for row in rows for name in row.names if name.startswith("-")}
    positional = next((row for row in rows if not row.names[0].startswith("-")), None)
    values: dict[str, object] = {}
    i = 1
    while i < len(argv):
        tok = argv[i]
        if tok == "--" and i == len(argv) - 2 and _is_negative_window(argv[-1]):
            row, value, i = positional, argv[-1], i + 2
        elif not tok.startswith("-"):
            row, value, i = positional, tok, i + 1
        elif "=" in tok:
            flag, _, value = tok.partition("=")
            if value.startswith("-") and not _is_negative_window(value):
                return None  # argparse reads such values its own way: '--' becomes []
            row, i = options.get(flag), i + 1
        elif i + 1 < len(argv) and not argv[i + 1].startswith("-"):
            row, value, i = options.get(tok), argv[i + 1], i + 2
        else:
            return None
        if row is None or row is positional and row.dest in values:
            return None
        if row.type is not None:
            try:
                value = row.type(value)
            except Exception:  # refused: argparse words the error
                return None
        if row.choices is not None and value not in row.allowed():
            return None
        values[row.dest] = value
    if any(row.required and row.dest not in values for row in rows):
        return None
    return SimpleNamespace(command=argv[0], fn=fn,
                           **{row.dest: values.get(row.dest, row.default) for row in rows})


def _is_negative_window(tok: str) -> bool:
    """Whether ``tok`` is '-' and then comma-separated integers, each but the
    first optionally signed: '-2,1' or '-3,-1' (digits as ``str.isdecimal``)."""
    head, *rest = tok.split(",")
    return (head[:1] == "-" and head[1:].isdecimal()
            and all(part.removeprefix("-").isdecimal() for part in rest))


def _protect_negative_windows(argv: list[str]) -> list[str]:
    """Keep window and integer arguments starting with '-' out of option parsing:
    fuse them into '--opt=value' form and shield bare positionals with '--'."""
    fused: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in ("--right", "--left", "--arg", "--key",
                   "--rank", "--window", "--split", "--max-window") and nxt is not None \
                and _is_negative_window(nxt):
            fused.append(f"{tok}={nxt}")
            i += 2
        else:
            fused.append(tok)
            i += 1
    for i, tok in enumerate(fused):
        if _is_negative_window(tok) and "--" not in fused[:i]:
            return fused[:i] + ["--"] + fused[i:]
    return fused


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _protect_negative_windows(list(argv))
    args = _parse_table(argv)
    if args is None:
        parser = build_parser(argv[0] if argv else None, not COMMANDS.keys().isdisjoint(argv))
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
        # argparse stores [] for an explicit '--name=--', past type and choices
        empty = next((row for row in COMMANDS[args.command][2]
                      if isinstance(getattr(args, row.dest), list)), None)
        if empty is not None:
            print(f"error: argument {'/'.join(empty.names)}: expected one argument",
                  file=sys.stderr)
            return EXIT_PARSE
    try:
        return args.fn(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
