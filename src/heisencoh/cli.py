"""Command-line surface: every module behind stable, diffable text output.

Conventions: data on stdout, errors on stderr; floating values printed with
17 significant digits; identical invocations produce identical bytes.  Exit
codes: 0 ok, 1 stdout closed by its reader, 2 usage, 3 domain/parse error,
4 precision error.
"""

from __future__ import annotations

import argparse
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
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heisencoh",
        description="Discrete Heisenberg group toolkit: exact group arithmetic, "
        "characters, small divisors, and the difference equation f - f(.+u) = g.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="exact group arithmetic on element lines from stdin")
    g.add_argument("op", choices=["mul", "inv", "comm", "conj", "nf"])
    g.set_defaults(func=_cmd_group)

    rep = sub.add_parser("rep", help="finite-dimensional representations and characters")
    repsub = rep.add_subparsers(dest="rep_command", required=True)
    rc = repsub.add_parser("character", help="character table over |m|,|k|,|s| <= range")
    rc.add_argument("--p", type=int, required=True)
    rc.add_argument("--xi", type=float, default=0.0)
    rc.add_argument("--eta", type=str, default="0")
    rc.add_argument("--alpha", type=float, default=0.0)
    rc.add_argument("--range", type=int, required=True)
    rc.set_defaults(func=_cmd_rep_character)
    rm = repsub.add_parser("matrix", help="matrix of one representation element")
    rm.add_argument("--p", type=int, required=True)
    rm.add_argument("--xi", type=float, default=0.0)
    rm.add_argument("--eta", type=str, default="0")
    rm.add_argument("--alpha", type=float, default=0.0)
    rm.add_argument("--element", type=str, required=True, help="'m k s'")
    rm.set_defaults(func=_cmd_rep_matrix)

    cl = sub.add_parser("classify", help="Diophantine/Liouville small-divisor scan")
    cl.add_argument("--vector", type=str, required=True, help="t1,..,tn")
    cl.add_argument("--kmax", type=int, required=True)
    cl.add_argument("--prec", type=int, default=128, help="working precision in bits")
    cl.add_argument("--s-grid", type=str, default="1,2,3")
    cl.set_defaults(func=_cmd_classify)

    so = sub.add_parser("solve", help="solve f - f(. + u) = g from a coefficient file")
    so.add_argument("--g", type=str, required=True, help="coefficient file for g")
    so.add_argument("--u", type=str, required=True, help="u1,..,un")
    so.add_argument("--prec", type=int, default=128)
    so.add_argument("--alpha-list", type=str, default="")
    so.add_argument("--verify", action="store_true",
                    help="recheck the residual of f as the --out file holds it")
    so.add_argument("--out", type=str, default=None)
    so.set_defaults(func=_cmd_solve)

    fa = sub.add_parser("fan", help="joint-spectrum fan membership")
    fa.add_argument("--lambda", dest="lam", type=int, required=True)
    fa.add_argument("--xi", type=int, required=True)
    fa.add_argument("--n", type=int, required=True)
    fa.set_defaults(func=_cmd_fan)

    sb = sub.add_parser("sobolev", help="discrete Sobolev norm of a coefficient file")
    sb.add_argument("--f", type=str, required=True)
    sb.add_argument("--alpha", type=float, required=True)
    sb.set_defaults(func=_cmd_sobolev)

    co = sub.add_parser("cohomology", help="integral cohomology table")
    co.add_argument("--n", type=int, required=True)
    co.add_argument("--k", type=int, default=None)
    co.set_defaults(func=_cmd_cohomology)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
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


if __name__ == "__main__":
    sys.exit(main())
