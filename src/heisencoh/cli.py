"""Command-line surface: every module behind stable, diffable text output.

Conventions: data on stdout, errors on stderr; floating values printed with
17 significant digits; identical invocations produce identical bytes.  Exit
codes: 0 ok, 1 stdout closed by its reader, 2 usage, 3 domain/parse error,
4 precision error.
"""

from __future__ import annotations

import os
import sys

# Each handler imports the modules it needs, so a command loads only its
# own: classify, group, rep, fan and cohomology start without numpy or mpmath.
from .coefficients import file_digest, read_coefficients, write_coefficients
from .errors import DomainError, HeisencohError, ParseError, PrecisionError


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_k(k) -> str:
    return ",".join(str(c) for c in k)


def _parse_vector(text: str, prec: int):
    from .precision import PrecisionReal

    return [PrecisionReal.parse(tok, prec) for tok in text.split(",") if tok.strip()]


def _parse_floats(text: str, flag: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"{flag} expects comma-separated numbers, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_group(args, out, err):
    from . import heisenberg as heis

    lines = [ln for ln in sys.stdin.read().splitlines() if ln.strip()]
    binary = args.op in ("mul", "comm", "conj")
    if binary and len(lines) % 2:
        raise ParseError("binary group ops need an even number of element lines")
    idx = 0
    while idx < len(lines):
        a = heis.parse_element(lines[idx], idx + 1)
        if binary:
            b = heis.parse_element(lines[idx + 1], idx + 2)
            idx += 2
            if isinstance(a, heis.HeisElementN) != isinstance(b, heis.HeisElementN):
                raise DomainError("cannot mix rank-1 and rank-n element lines")
            if args.op == "mul":
                res = a * b
            elif args.op == "comm":
                res = heis.commutator(a, b)
            else:
                res = heis.conjugate(a, b)
            out.write(heis.format_element(res) + "\n")
        else:
            idx += 1
            if args.op == "inv":
                out.write(heis.format_element(a.inverse()) + "\n")
            else:  # nf
                if isinstance(a, heis.HeisElementN):
                    raise DomainError("normal form is defined for rank-1 elements")
                nf = heis.normal_form(a)
                out.write(f"{nf.a} {nf.b} {nf.c}\n")
    return 0


def _irrep_params(args):
    from fractions import Fraction

    from . import representations as reps

    try:
        eta = Fraction(args.eta.strip())  # "1/2", "0.25", "0", ...
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse eta {args.eta!r}") from None
    return reps.IrrepParams(p=args.p, xi=args.xi, eta=eta, alpha=args.alpha)


def _cmd_rep_character(args, out, err):
    from . import representations as reps

    P = _irrep_params(args)
    for m, k, s, chi in reps.character_table(P, args.range):
        out.write(f"{m} {k} {s} {_fmt(chi.real)} {_fmt(chi.imag)}\n")
    return 0


def _cmd_rep_matrix(args, out, err):
    from . import representations as reps

    P = _irrep_params(args)
    toks = args.element.split()
    try:
        m, k, s = map(int, toks)
    except ValueError:
        raise ParseError("--element expects 'm k s'") from None
    a = reps.SemidirectElement(m, k, s)
    U = reps.irrep_matrix(P, a)
    for i in range(P.p):
        for j in range(P.p):
            out.write(f"{i} {j} {_fmt(U[i][j].real)} {_fmt(U[i][j].imag)}\n")
    return 0


def _raise_if_dependent(exc, text, prec, what):
    """Raise a PrecisionError naming a rational dependence when exc, a
    PrecisionError at mode k of the vector text parsed at prec bits, has
    <k, t> still an integer with text parsed at 2 prec bits (at most
    MAX_PREC), taken exactly on ``_phase_grid``; what says how the divisor
    at k failed.  Return otherwise, so the caller raises exc."""
    from .diophantine import _phase, _phase_grid
    from .precision import MAX_PREC

    bits = min(2 * prec, MAX_PREC)
    if exc.k is None or bits <= prec:
        return
    scaled, modulus = _phase_grid([c.fractional_part() for c in _parse_vector(text, bits)])
    if _phase(scaled, modulus, exc.k)[0] == 0:
        raise PrecisionError(
            f"divisor at k={exc.k} {what}, and <k, t> is still an integer at "
            f"{bits} bits: the components look rationally dependent, and "
            "more precision will not help", exc.k
        ) from None


def _cmd_classify(args, out, err):
    from . import diophantine

    tvec = _parse_vector(args.vector, args.prec)
    if not tvec:
        raise DomainError("--vector is empty")
    s_grid = _parse_floats(args.s_grid, "--s-grid")
    try:
        report = diophantine.classify(tvec, args.kmax, s_grid)
    except PrecisionError as exc:
        _raise_if_dependent(exc, args.vector, args.prec, "is below the scan resolution")
        raise
    prec_txt = "exact" if report.precision_bits is None else str(report.precision_bits)
    out.write(f"verdict={report.verdict}\n")
    out.write(f"dim={report.dim}\n")
    out.write(f"kmax={report.kmax}\n")
    out.write(f"precision_bits={prec_txt}\n")
    out.write(f"points_scanned={report.points_scanned}\n")
    if report.diophantine_s is not None:
        out.write(f"diophantine_s={_fmt(report.diophantine_s)}\n")
        out.write(f"diophantine_c={_fmt(report.diophantine_c)}\n")
    if report.rational_k is not None:
        out.write(f"rational_k={_fmt_k(report.rational_k)}\n")
    if report.records:
        out.write(f"min_divisor={_fmt(report.min_divisor)}\n")
        out.write(f"argmin_k={_fmt_k(report.argmin_k)}\n")
    for row in report.s_table:
        if not row.argmin_k:
            continue  # nothing scanned at this level (fully resonant input)
        out.write(
            f"s={_fmt(row.s)} C={_fmt(row.c)} argmin_k={_fmt_k(row.argmin_k)} "
            f"shell_min={_fmt(row.shell_min)} shell_max={_fmt(row.shell_max)} "
            f"evidence={'true' if row.evidence else 'false'}\n"
        )
    for w in report.witnesses:
        levels = ",".join(_fmt(s) for s in w.levels)
        sig = ",".join(_fmt(s) for s in w.significant) or "-"
        out.write(
            f"witness k={_fmt_k(w.k)} dist={_fmt(w.dist)} divisor={_fmt(w.divisor)} "
            f"exponent={_fmt(w.exponent)} levels={levels} significant={sig}\n"
        )
    for r in report.records:
        out.write(
            f"record k={_fmt_k(r.k)} divisor={_fmt(r.divisor)} normk={r.normk}\n"
        )
    out.write("note=verdicts other than Rational are finite-scan evidence, not proof\n")
    return 0


def _cmd_solve(args, out, err):
    from . import coboundary as coboundary_mod

    with open(args.g, encoding="utf-8") as fh:
        g = read_coefficients(fh)
    problem = coboundary_mod.CoboundaryProblem(g=g, u=_parse_vector(args.u, args.prec))
    try:
        sol = coboundary_mod.solve(problem)
    except PrecisionError as exc:
        _raise_if_dependent(exc, args.u, args.prec, f"is not resolved at {args.prec} input bits")
        raise
    alphas = _parse_floats(args.alpha_list, "--alpha-list")
    norms = coboundary_mod.sobolev_loss(sol, g, alphas)[0] if alphas else []

    # f goes straight into the --out file, or to stdout at the end.
    # --verify takes f as read back when the file holds the bytes written,
    # since every double survives its 17-digit text, and otherwise reads
    # the file
    verify_residual = digest = None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            digest = write_coefficients(sol.f, fh)
    if args.verify:
        f_back = sol.f
        if args.out and file_digest(args.out) != digest:
            with open(args.out, encoding="utf-8") as fh:
                f_back = read_coefficients(fh)
        if f_back is sol.f:
            verify_residual = sol.residual_sup  # the same float
        else:
            verify_residual = coboundary_mod.residual(f_back, g, problem.u)
        del f_back

    if args.out:
        diag = out
    else:
        write_coefficients(sol.f, out)
        diag = err
    diag.write(f"min_divisor={'-' if sol.min_divisor is None else _fmt(sol.min_divisor)}\n")
    diag.write(f"argmin_k={_fmt_k(sol.argmin_k) if sol.argmin_k else '-'}\n")
    diag.write(f"residual_sup={_fmt(sol.residual_sup)}\n")
    for row in norms:
        diag.write(
            f"norm alpha={_fmt(row['alpha'])} f={_fmt(row['f_norm'])} "
            f"g={_fmt(row['g_norm_shifted'])} ratio={_fmt(row['ratio'])}\n"
        )
    if sol.formal:
        diag.write("formal=true\n")
    for radius, val in sol.truncation_norms:
        diag.write(f"truncation radius={radius} f_l2={_fmt(val)}\n")
    if verify_residual is not None:
        diag.write(f"verify_residual={_fmt(verify_residual)}\n")
    return 0


def _cmd_fan(args, out, err):
    from .diophantine import fan_member

    member = fan_member(args.lam, args.xi, args.n)
    out.write(f"member={'true' if member else 'false'}\n")
    return 0


def _cmd_sobolev(args, out, err):
    from . import fourier as fourier_mod

    with open(args.f, encoding="utf-8") as fh:
        field = read_coefficients(fh)
    if field.dim != 1:
        raise DomainError("the multiplier Sobolev norm is one-dimensional")
    out.write(f"norm={_fmt(fourier_mod.sobolev_norm(field, args.alpha))}\n")
    return 0


def _cmd_cohomology(args, out, err):
    from . import cohomology as cohomology_mod

    if args.k is not None and args.k < 0:
        raise DomainError("k must be nonnegative")
    table = cohomology_mod.cohomology_table(args.n)
    ks = range(len(table.groups)) if args.k is None else [args.k]
    for k in ks:
        g = table.groups[k] if k < len(table.groups) else cohomology_mod.cohomology(args.n, k)
        out.write(f"{k} {g.free_rank} {g.torsion_text()}\n")
    return 0


# ---------------------------------------------------------------------------
# command table and parser


REQUIRED = object()  # the default of an option that must be given

# the namespace handed to a handler: types.SimpleNamespace, without importing types
_Namespace = type(sys.implementation)


class Option:
    """One option of a command.  A flag without a leading "-" is a positional
    argument.  type converts the value's text; None makes a switch, which
    stores True and defaults to False.  dest, the namespace attribute, is by
    default the flag without its dashes, with "_" for "-"."""

    __slots__ = ("flag", "type", "default", "help", "dest", "choices")

    def __init__(self, flag, type=str, default=None, help="", dest=None, choices=None):
        self.flag, self.type, self.help, self.choices = flag, type, help, choices
        self.default = False if type is None else default
        self.dest = dest or flag.lstrip("-").replace("-", "_")

    def word(self):
        """The option as the usage line shows it."""
        if self.choices:
            return "{" + ",".join(self.choices) + "}"
        return self.flag if self.type is None else f"{self.flag} {self.dest.upper()}"


_REP_OPTIONS = (
    Option("--p", int, REQUIRED),
    Option("--xi", float, 0.0),
    Option("--eta", str, "0"),
    Option("--alpha", float, 0.0),
)

# command words -> (handler, help, options).  An entry without a handler is a
# menu of the entries one word longer; "" is the program itself.
COMMANDS = {
    "": (None, "Discrete Heisenberg group toolkit: exact group arithmetic, characters, "
         "small divisors, and the difference equation f - f(.+u) = g.", ()),
    "group": (_cmd_group, "exact group arithmetic on element lines from stdin", (
        Option("op", str, REQUIRED, choices=("mul", "inv", "comm", "conj", "nf")),
    )),
    "rep": (None, "finite-dimensional representations and characters", ()),
    "rep character": (_cmd_rep_character, "character table over |m|,|k|,|s| <= range", (
        *_REP_OPTIONS,
        Option("--range", int, REQUIRED),
    )),
    "rep matrix": (_cmd_rep_matrix, "matrix of one representation element", (
        *_REP_OPTIONS,
        Option("--element", str, REQUIRED, "'m k s'"),
    )),
    "classify": (_cmd_classify, "Diophantine/Liouville small-divisor scan", (
        Option("--vector", str, REQUIRED, "t1,..,tn"),
        Option("--kmax", int, REQUIRED),
        Option("--prec", int, 128, "working precision in bits"),
        Option("--s-grid", str, "1,2,3"),
    )),
    "solve": (_cmd_solve, "solve f - f(. + u) = g from a coefficient file", (
        Option("--g", str, REQUIRED, "coefficient file for g"),
        Option("--u", str, REQUIRED, "u1,..,un"),
        Option("--prec", int, 128),
        Option("--alpha-list", str, ""),
        Option("--verify", None, help="recheck the residual of f as the --out file holds it"),
        Option("--out", str),
    )),
    "fan": (_cmd_fan, "joint-spectrum fan membership", (
        Option("--lambda", int, REQUIRED, dest="lam"),
        Option("--xi", int, REQUIRED),
        Option("--n", int, REQUIRED),
    )),
    "sobolev": (_cmd_sobolev, "discrete Sobolev norm of a coefficient file", (
        Option("--f", str, REQUIRED),
        Option("--alpha", float, REQUIRED),
    )),
    "cohomology": (_cmd_cohomology, "integral cohomology table", (
        Option("--n", int, REQUIRED),
        Option("--k", int),
    )),
}


def _subcommands(path):
    return [key.rpartition(" ")[2] for key in COMMANDS if key and key.rpartition(" ")[0] == path]


def _usage(path):
    handler, _, options = COMMANDS[path]
    if handler is None:
        words = ["{" + ",".join(_subcommands(path)) + "}", "..."]
    else:
        words = [o.word() if o.default is REQUIRED else f"[{o.word()}]" for o in options]
    return " ".join(["usage: heisencoh", *path.split(), "[-h]", *words])


def _help(path):
    handler, about, options = COMMANDS[path]
    if handler is None:
        heading = "commands"
        rows = [(word, COMMANDS[f"{path} {word}".lstrip()][1]) for word in _subcommands(path)]
    else:
        heading = "options"
        rows = [("-h, --help", "show this help message and exit")]
        for o in options:
            text = o.help
            if o.default not in (None, REQUIRED, False, ""):
                text = f"{text} (default: {o.default})".lstrip()
            rows.append((o.word(), text))
    width = max(len(name) for name, _ in rows) + 2
    lines = [f"  {name:<{width}}{text}".rstrip() for name, text in rows]
    return "\n".join([_usage(path), "", about, "", f"{heading}:", *lines]) + "\n"


class _UsageError(Exception):
    pass


def _is_negative_number(tok):
    """Whether tok reads as a negative number: -\\d+ or -\\d*\\.\\d+."""
    whole, dot, frac = tok[1:].partition(".")
    if not dot:
        return whole.isdecimal()
    return frac.isdecimal() and (not whole or whole.isdecimal())


def _option_token(tok, flags):
    """None when tok is a value, else (flag, the text after "=" or None),
    flag None when tok names none of flags.  A token that starts with "-"
    is an option unless it is "-", looks like a negative number or holds a
    space.  It names a flag exactly, as flag=value, or by a unique prefix of
    a long flag; "-h" followed by more text names "-h"."""
    if not tok.startswith("-") or tok == "-":
        return None
    if tok in flags:
        return tok, None
    name, eq, value = tok.partition("=")
    if eq and name in flags:
        return name, value
    if tok.startswith("--"):
        matches = [f for f in flags if f.startswith(name)]
        value = value if eq else None
    else:
        matches, value = [f for f in flags if f == tok[:2]], tok[2:]
    if len(matches) > 1:
        raise _UsageError(f"ambiguous option: {tok} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    if _is_negative_number(tok) or " " in tok:
        return None
    return None, None


def _convert(option, text):
    """The value of option given text, which is None for a switch alone."""
    if option.type is None:
        if text is not None:
            raise _UsageError(f"argument {option.flag}: ignored explicit argument {text!r}")
        return True
    try:
        value = option.type(text)
    except ValueError:
        raise _UsageError(
            f"argument {option.flag}: invalid {option.type.__name__} value: {text!r}"
        ) from None
    if option.choices and value not in option.choices:
        raise _UsageError(f"argument {option.flag}: invalid choice: {value!r} "
                          f"(choose from {', '.join(map(repr, option.choices))})")
    return value


def _print_help(path, value):
    """Print the help of path, unless -h or --help came with "=value"."""
    if value is not None:
        raise _UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
    sys.stdout.write(_help(path))
    raise SystemExit(0)


def parse_args(argv=None):
    """The namespace of argv (by default sys.argv[1:]) that the handler of
    its command, its func, takes.  Help goes to stdout and a usage error to
    stderr, and each then raises SystemExit, with status 0 and 2."""
    argv = sys.argv[1:] if argv is None else list(argv)
    path, extras = "", []
    try:
        # the command words: unknown options among them wait for the end
        while COMMANDS[path][0] is None:
            if not argv:
                raise _UsageError("the following arguments are required: command")
            tok = argv.pop(0)
            kind = None if tok == "--" else _option_token(tok, ("-h", "--help"))
            if kind is None:
                words = _subcommands(path)
                if tok not in words:
                    raise _UsageError(f"argument command: invalid choice: {tok!r} "
                                      f"(choose from {', '.join(map(repr, words))})")
                path = f"{path} {tok}".lstrip()
            elif kind[0] is None:
                extras.append(tok)
            else:
                _print_help(path, kind[1])

        handler, _, options = COMMANDS[path]
        flags = {"-h": None, "--help": None}
        flags.update((o.flag, o) for o in options if o.flag.startswith("-"))
        positionals = [o for o in options if not o.flag.startswith("-")]
        args = _Namespace(func=handler, **{
            o.dest: None if o.default is REQUIRED else o.default for o in options
        })
        # each option token is resolved before any is acted on, and every
        # token after "--" is a value
        kinds, rest = [], False
        for tok in argv:
            if rest:
                kinds.append(None)
            else:
                rest = tok == "--"
                kinds.append("--" if rest else _option_token(tok, flags))
        given, i = set(), 0
        while i < len(argv):
            tok, kind = argv[i], kinds[i]
            i += 1
            if kind == "--":
                continue
            if kind is None:
                if not positionals:
                    extras.append(tok)
                    continue
                option, value = positionals.pop(0), tok
            elif kind[0] is None:
                extras.append(tok)
                continue
            else:
                (flag, value), option = kind, flags[kind[0]]
                if option is None:
                    _print_help(path, value)
                if value is None and option.type is not None:
                    if i == len(argv) or kinds[i] is not None:
                        raise _UsageError(f"argument {flag}: expected one argument")
                    value = argv[i]
                    i += 1
            setattr(args, option.dest, _convert(option, value))
            given.add(option)
        missing = [o.flag for o in options if o.default is REQUIRED and o not in given]
        if missing:
            raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
        if extras:
            raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
        return args
    except _UsageError as exc:
        sys.stderr.write(f"{_usage(path)}\n{' '.join(['heisencoh', *path.split()])}: "
                         f"error: {exc}\n")
        raise SystemExit(2) from None


def main(argv=None) -> int:
    """Run the command of argv (by default sys.argv[1:]) and return its exit
    status.  It neither exits nor touches the collector: see ``run``."""
    try:
        try:
            args = parse_args(argv)
        except SystemExit as exc:  # help or a usage error, already printed
            rc = exc.code
        else:
            rc = args.func(args, sys.stdout, sys.stderr)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed stdout (`| head`): as the Python docs advise for
        # SIGPIPE, point it at devnull so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except PrecisionError as exc:
        sys.stderr.write(f"error[precision]: {exc}\n")
        return 4
    except ParseError as exc:
        sys.stderr.write(f"error[parse]: {exc}\n")
        return 3
    except (DomainError, HeisencohError, OSError) as exc:
        sys.stderr.write(f"error[domain]: {exc}\n")
        return 3


def run():
    """The `heisencoh` command, as installed and as `python -m heisencoh`:
    ``main`` on sys.argv, then, once stdout and stderr are flushed, the
    process ends with its status through os._exit.  That skips the
    interpreter's teardown of every loaded module, which a finished command
    has no use for."""
    rc = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    finally:  # a stream its reader closed ends the process all the same
        os._exit(rc)


if __name__ == "__main__":
    run()
