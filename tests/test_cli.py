import subprocess
import sys
import time
from pathlib import Path

import pytest

from heisencoh import cli

CMD = [sys.executable, "-m", "heisencoh"]
GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, stdin=""):
    return subprocess.run(
        CMD + list(args), input=stdin, capture_output=True, text=True, timeout=120
    )


def test_group_inv():
    r = run_cli("group", "inv", stdin="1 2 3\n")
    assert r.returncode == 0
    assert r.stdout == "-1 -2 -1\n"


def test_group_mul_pairs():
    r = run_cli("group", "mul", stdin="1 2 3\n4 5 6\n0 0 0\n5 -2 7\n")
    assert r.returncode == 0
    assert r.stdout == "5 7 14\n5 -2 7\n"


def test_group_rank_n():
    r = run_cli("group", "mul", stdin="1 0 | 0 0 | 0\n0 0 | 0 1 | 0\n")
    assert r.returncode == 0
    assert r.stdout == "1 0 | 0 1 | 0\n"


def test_group_comm_conj_nf():
    r = run_cli("group", "comm", stdin="2 3 7\n1 -1 4\n")
    assert r.stdout == "0 0 -5\n"
    r = run_cli("group", "conj", stdin="1 0 0\n0 1 0\n")
    assert r.stdout == "0 1 1\n"
    r = run_cli("group", "nf", stdin="3 2 -4\n")
    assert r.stdout == "2 3 -4\n"


def test_group_comm_conj_rank_n():
    # a = (1 2 | 0 1 | 3), b = (0 1 | 4 -1 | 2): <a.x, b.y> = 2, <b.x, a.y> = 1
    pair = "1 2 | 0 1 | 3\n0 1 | 4 -1 | 2\n"
    r = run_cli("group", "comm", stdin=pair)
    assert r.returncode == 0
    assert r.stdout == "0 0 | 0 0 | 1\n"
    r = run_cli("group", "conj", stdin=pair)
    assert r.returncode == 0
    assert r.stdout == "0 1 | 4 -1 | 3\n"
    r = run_cli("group", "comm", stdin="1 2 | 0 1 | 3\n1 2 3\n")
    assert r.returncode == 3 and "cannot mix" in r.stderr


def test_group_odd_lines_is_error():
    r = run_cli("group", "mul", stdin="1 2 3\n")
    assert r.returncode == 3
    assert "error[parse]" in r.stderr


def test_group_bad_element():
    r = run_cli("group", "inv", stdin="1 2\n")
    assert r.returncode == 3


def test_fan():
    r = run_cli("fan", "--lambda", "1", "--xi", "3", "--n", "1")
    assert r.returncode == 0 and r.stdout == "member=true\n"
    r = run_cli("fan", "--lambda", "2", "--xi", "5", "--n", "1")
    assert r.stdout == "member=false\n"


def test_cohomology_table():
    r = run_cli("cohomology", "--n", "1")
    assert r.returncode == 0
    assert r.stdout == "0 1 -\n1 2 -\n2 2 -\n3 1 -\n4 0 -\n"
    r = run_cli("cohomology", "--n", "1", "--k", "3")
    assert r.stdout == "3 1 -\n"
    r = run_cli("cohomology", "--n", "2")
    assert [ln.split()[1] for ln in r.stdout.splitlines()] == ["1", "4", "5", "5", "4", "1", "0"]


@pytest.mark.parametrize("k", [3, 10])
def test_cohomology_single_k_row(k):
    # k = 10 lies above the n = 1 table (k = 0..4): H^10 = 0
    r = run_cli("cohomology", "--n", "1", "--k", str(k))
    assert (r.returncode, r.stdout, r.stderr) == (0, {3: "3 1 -\n", 10: "10 0 -\n"}[k], "")


@pytest.mark.parametrize("args", [("--n", "0"), ("--n", "31"), ("--n", "1", "--k", "-1")])
def test_cohomology_domain_errors(args):
    r = run_cli("cohomology", *args)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith("error[domain]: ") and "Traceback" not in r.stderr


def test_rep_character_table():
    r = run_cli("rep", "character", "--p", "2", "--eta", "1/2", "--range", "1")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert len(lines) == 27
    # identity row: m=0 k=0 s=0 has trace p = 2
    row = [ln for ln in lines if ln.startswith("0 0 0 ")][0]
    assert row == "0 0 0 2 0"


def test_rep_matrix_swap():
    r = run_cli("rep", "matrix", "--p", "2", "--eta", "1/2", "--element", "0 0 1")
    assert r.returncode == 0
    assert r.stdout == "0 0 0 0\n0 1 1 0\n1 0 1 0\n1 1 0 0\n"


def test_rep_usage_error(capsys):
    for element in ("0 0", "a b c", "0 0 1.5"):
        assert cli.main(["rep", "matrix", "--p", "2", "--element", element]) == 3
        assert capsys.readouterr() == ("", "error[parse]: --element expects 'm k s'\n")
    r = run_cli("rep", "character", "--p", "0", "--eta", "0", "--range", "1")
    assert r.returncode == 3


def test_classify_rational_text():
    r = run_cli("classify", "--vector", "3/7", "--kmax", "100")
    assert r.returncode == 0
    assert "verdict=Rational" in r.stdout
    assert "rational_k=7" in r.stdout
    assert "precision_bits=exact" in r.stdout


def test_classify_golden_text():
    r = run_cli(
        "classify", "--vector", "golden", "--kmax", "5000", "--prec", "128", "--s-grid", "1,2,3",
    )
    top = dict(ln.split("=", 1) for ln in r.stdout.splitlines() if " " not in ln)
    assert top["verdict"] == "DiophantineEvidence"
    assert float(top["diophantine_s"]) == 1.0
    assert float(top["diophantine_c"]) > 1.0


def test_classify_usage():
    r = run_cli("classify", "--vector", "golden")
    assert r.returncode == 2  # missing --kmax


def test_sobolev(tmp_path):
    f = tmp_path / "f.coef"
    f.write_text("dim=1\n0 1.0 0.0\n", encoding="utf-8")
    r = run_cli("sobolev", "--f", str(f), "--alpha", "0")
    assert r.returncode == 0
    assert r.stdout == "norm=1\n"
    r = run_cli("sobolev", "--f", str(f), "--alpha", "1")
    assert abs(float(r.stdout.removeprefix("norm=")) - 2.3550964076806551) < 1e-10


@pytest.mark.parametrize("s_grid", ["abc", "1,x", "nan", "inf"])
def test_classify_s_grid_that_is_no_finite_number(s_grid):
    r = run_cli("classify", "--vector", "golden", "--kmax", "10", "--s-grid", s_grid)
    assert r.returncode == 3
    assert r.stderr.startswith("error[") and "Traceback" not in r.stderr


@pytest.mark.parametrize("s_grid", ["1e300", "1e6", "1,1024.5"])
def test_classify_level_above_1024_is_a_domain_error(s_grid, capsys):
    # |k|^s overflows a double for every |k| >= 2 above s = 1024; such a
    # level used to run the exact powers lo**ceil(s) without end
    argv = ["classify", "--vector", "golden", "--kmax", "10000000", "--s-grid", s_grid]
    start = time.monotonic()
    assert cli.main(argv) == 3
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error[domain]") and "1024" in err


def test_classify_level_1024_runs():
    r = run_cli("classify", "--vector", "golden,sqrt2", "--kmax", "1000", "--s-grid", "1.5,1024")
    assert r.returncode == 0, r.stderr
    rows = [ln for ln in r.stdout.splitlines() if ln.startswith("s=")]
    assert [ln.split()[0] for ln in rows] == ["s=1.5", "s=1024"]
    assert "shell_max=inf" in rows[1]


@pytest.mark.parametrize("alphas", ["x", "0,x", "nan", "0,inf"])
@pytest.mark.parametrize("dim", [1, 2])
def test_solve_alpha_list_that_is_no_finite_number(tmp_path, alphas, dim):
    g = tmp_path / "g.coef"
    g.write_text(f"dim={dim}\n{'1 ' * dim}1 0\n", encoding="utf-8")
    r = run_cli("solve", "--g", str(g), "--u", ",".join(["1/4"] * dim), "--alpha-list", alphas)
    assert r.returncode == 3
    assert r.stderr.startswith("error[") and "Traceback" not in r.stderr


def test_sobolev_missing_file(tmp_path):
    r = run_cli("sobolev", "--f", str(tmp_path / "nope.coef"), "--alpha", "0")
    assert r.returncode == 3


def test_sobolev_parse_error_line(tmp_path):
    f = tmp_path / "bad.coef"
    f.write_text("dim=1\n1 1.0\n", encoding="utf-8")
    r = run_cli("sobolev", "--f", str(f), "--alpha", "0")
    assert r.returncode == 3
    assert "line 2" in r.stderr


def test_solve_round_trip(tmp_path):
    g = tmp_path / "g.coef"
    g.write_text("dim=1\n1 1 0\n", encoding="utf-8")
    r = run_cli("solve", "--g", str(g), "--u", "1/4", "--verify")
    assert r.returncode == 0
    assert "dim=1" in r.stdout
    assert "1 0.5 0.5" in r.stdout
    assert "verify_residual=0" in r.stderr
    # library residual agrees with the --verify value
    out = tmp_path / "f.coef"
    r2 = run_cli("solve", "--g", str(g), "--u", "1/4", "--out", str(out), "--verify")
    assert r2.returncode == 0
    verify_line = [ln for ln in r2.stdout.splitlines() if ln.startswith("verify_residual=")]
    v = float(verify_line[0].split("=")[1])

    from heisencoh.coboundary import residual
    from heisencoh.coefficients import read_coefficients
    from fractions import Fraction

    with open(out, encoding="utf-8") as fh:
        f_parsed = read_coefficients(fh)
    with open(g, encoding="utf-8") as fh:
        g_parsed = read_coefficients(fh)
    lib = residual(f_parsed, g_parsed, [Fraction(1, 4)])
    assert abs(lib - v) <= 1e-12


def test_solve_nonzero_mean(tmp_path):
    g = tmp_path / "g.coef"
    g.write_text("dim=1\n0 1 0\n1 1 0\n", encoding="utf-8")
    r = run_cli("solve", "--g", str(g), "--u", "1/4")
    assert r.returncode == 3
    assert "nonzero mean" in r.stderr


def test_solve_resonance(tmp_path):
    g = tmp_path / "g.coef"
    g.write_text("dim=1\n4 1 0\n", encoding="utf-8")
    r = run_cli("solve", "--g", str(g), "--u", "1/4")
    assert r.returncode == 3
    assert "resonant" in r.stderr


def test_solve_prints_f_and_its_diagnostics(tmp_path):
    g = tmp_path / "g.coef"
    g.write_text("dim=1\n1 1 0\n", encoding="utf-8")
    r = run_cli("solve", "--g", str(g), "--u", "1/4", "--alpha-list", "0,1")
    assert (r.returncode, r.stdout) == (0, "dim=1\n1 0.5 0.5\n")
    diag = r.stderr.splitlines()
    assert float(diag[0].removeprefix("min_divisor=")) == pytest.approx(2**0.5)
    assert [ln.split()[1] for ln in diag if ln.startswith("norm ")] == ["alpha=0", "alpha=1"]


def test_solve_writes_f_once(tmp_path, monkeypatch, capsys):
    from heisencoh import cli

    g = tmp_path / "g.coef"
    g.write_text("dim=1\n-2 0.5 0.25\n1 1 0\n3 0 -2\n", encoding="utf-8")
    calls = []
    real_write = cli.write_coefficients
    monkeypatch.setattr(cli, "write_coefficients",
                        lambda f, fh: calls.append(f) or real_write(f, fh))
    argv = ["solve", "--g", str(g), "--u", "golden", "--verify"]
    assert cli.main(argv + ["--out", str(tmp_path / "f.coef")]) == 0
    assert len(calls) == 1
    assert "verify_residual=" in capsys.readouterr().out
    assert cli.main(argv) == 0
    assert len(calls) == 2
    assert capsys.readouterr().out == (tmp_path / "f.coef").read_text(encoding="utf-8")


def test_unknown_flag_is_usage_error():
    r = run_cli("fan", "--lambda", "1", "--xi", "3", "--n", "1", "--bogus")
    assert r.returncode == 2


def test_determinism_byte_identical():
    invocations = [
        (("classify", "--vector", "golden", "--kmax", "3000"), ""),
        (("classify", "--vector", "3/7", "--kmax", "50"), ""),
        (("cohomology", "--n", "3"), ""),
        (("rep", "character", "--p", "3", "--eta", "2/3", "--alpha", "0.25",
          "--range", "2"), ""),
        (("group", "mul",), "1 2 3\n4 5 6\n"),
        (("fan", "--lambda", "-4", "--xi", "12", "--n", "2"), ""),
    ]
    for args, stdin in invocations:
        a = run_cli(*args, stdin=stdin)
        b = run_cli(*args, stdin=stdin)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert a.stderr == b.stderr


@pytest.mark.parametrize("prec", ["128", "512"])
@pytest.mark.parametrize("vector,k", [("golden,sqrt5", "(2, -1)"), ("sqrt2,sqrt2", "(1, -1)")])
def test_classify_names_a_relation_that_precision_cannot_resolve(vector, k, prec):
    # 2 golden - sqrt5 = -1 and sqrt2 - sqrt2 = 0 hold at every precision
    r = run_cli("classify", "--vector", vector, "--kmax", "100", "--prec", prec)
    assert r.returncode == 4
    assert r.stdout == ""
    assert r.stderr == (
        f"error[precision]: divisor at k={k} is below the scan resolution, and "
        f"<k, t> is still an integer at {2 * int(prec)} bits: the components look "
        "rationally dependent, and more precision will not help\n"
    )


def test_classify_names_max_prec_where_it_cannot_recheck():
    # at MAX_PREC bits --prec can give no more, so neither message advises it
    from heisencoh.precision import MAX_PREC

    r = run_cli("classify", "--vector", "golden,sqrt5", "--kmax", "10", "--prec", str(MAX_PREC))
    assert (r.returncode, r.stdout) == (4, "")
    assert r.stderr == (
        f"error[precision]: divisor at k=(2, -1) is below the scan resolution at {MAX_PREC} "
        f"input bits, and --prec takes at most {MAX_PREC}\n"
    )
    # F_6049 / F_6050 is within 2^-8390 of golden: at k = (1, -1) the least
    # divisor is not 0 but below what MAX_PREC bits of golden resolve
    a, b = 0, 1
    for _ in range(6050):
        a, b = b, a + b
    vector = f"golden,{a}/{b}"
    r = run_cli("classify", "--vector", vector, "--kmax", "1", "--prec", str(MAX_PREC))
    assert (r.returncode, r.stdout) == (4, "")
    assert r.stderr == (
        f"error[precision]: smallest scanned divisor is not resolved at {MAX_PREC} input bits, "
        f"and --prec takes at most {MAX_PREC}\n"
    )
    r = run_cli("classify", "--vector", vector, "--kmax", "1", "--prec", "4097")
    assert (r.returncode, r.stderr) == (4, "error[precision]: smallest scanned divisor is not "
                                           "resolved at 4097 input bits; increase the working "
                                           "precision\n")
    # below MAX_PREC the recheck runs at MAX_PREC and names the relation
    r = run_cli("classify", "--vector", "golden,sqrt5", "--kmax", "10", "--prec", "4097")
    assert r.returncode == 4 and "rationally dependent" in r.stderr


def test_classify_keeps_its_advice_where_more_precision_resolves():
    from decimal import Decimal, localcontext

    from heisencoh.precision import PrecisionReal

    # the exact decimal of sqrt2's fractional part at 64 bits: equal to it at
    # 64 bits, and no longer at 128
    man, exp = PrecisionReal.parse("sqrt2", 64).fractional_part().man_exp
    with localcontext() as ctx:
        ctx.prec = 100
        frac = Decimal(man) / Decimal(2) ** -exp
    vector = f"sqrt2,{frac}"
    r = run_cli("classify", "--vector", vector, "--kmax", "100", "--prec", "64")
    assert r.returncode == 4
    assert r.stderr == (
        "error[precision]: divisor at k=(1, -1) is below the scan resolution; "
        "increase the working precision\n"
    )
    assert run_cli("classify", "--vector", vector, "--kmax", "100").returncode == 0


@pytest.mark.parametrize("prec", ["128", "512"])
@pytest.mark.parametrize("vector,k", [("golden,sqrt5", "(-2, 1)"), ("sqrt2,sqrt2", "(-1, 1)")])
def test_solve_names_a_relation_that_precision_cannot_resolve(tmp_path, vector, k, prec):
    g = tmp_path / "g.coef"
    g.write_text("dim=2\n-2 1 1 0\n-1 1 1 0\n1 -1 1 0\n2 -1 1 0\n", encoding="utf-8")
    r = run_cli("solve", "--g", str(g), "--u", vector, "--prec", prec)
    assert r.returncode == 4
    assert r.stdout == ""
    assert r.stderr == (
        f"error[precision]: divisor at k={k} is not resolved at {prec} input bits, and "
        f"<k, t> is still an integer at {2 * int(prec)} bits: the components look "
        "rationally dependent, and more precision will not help\n"
    )


def test_solve_keeps_its_message_where_more_precision_resolves(tmp_path):
    from decimal import Decimal, localcontext

    from heisencoh.precision import PrecisionReal

    # as for classify: the zero at k = (1, -1) is gone at 128 bits
    man, exp = PrecisionReal.parse("sqrt2", 64).fractional_part().man_exp
    with localcontext() as ctx:
        ctx.prec = 100
        frac = Decimal(man) / Decimal(2) ** -exp
    g = tmp_path / "g.coef"
    g.write_text("dim=2\n1 -1 1 0\n", encoding="utf-8")
    r = run_cli("solve", "--g", str(g), "--u", f"sqrt2,{frac}", "--prec", "64")
    assert r.returncode == 4
    assert r.stderr == "error[precision]: divisor at k=(1, -1) is not resolved at 64 input bits\n"


def test_solve_computes_the_residual_once_per_grid(monkeypatch):
    from heisencoh import cli, coboundary

    calls = []
    real = coboundary._residual
    monkeypatch.setattr(coboundary, "_residual", lambda *a: calls.append(a) or real(*a))
    argv = ["solve", "--g", str(GOLDEN / "solve_g_dim2_r8.txt"),
            "--u", "golden,sqrt2"]
    assert cli.main(argv) == 0
    assert len(calls) == 1
    # without --out nothing is read back, so --verify takes that residual
    assert cli.main(argv + ["--verify"]) == 0
    assert len(calls) == 2


def test_solve_has_no_grid_size_option(tmp_path, capsys):
    # nor a resonance tolerance or a truncation radius: each is a usage error
    g = tmp_path / "g.coef"
    g.write_text("dim=1\n1 1 0\n", encoding="utf-8")
    for option, value in [("--grid-size", "31"), ("--resonance-tol", "1e-30"),
                          ("--truncation-radius", "3")]:
        assert cli.main(["solve", "--g", str(g), "--u", "1/4", option, value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and option in err, option


@pytest.mark.parametrize("option, value", [
    ("--resonance-tol", "nan"), ("--resonance-tol", "-1"), ("--resonance-tol", "inf"),
    ("--resonance-tol", "-inf"), ("--truncation-radius", "-1"),
])
def test_solve_takes_no_tuning_option(tmp_path, option, value):
    # values the deleted options once refused as a domain error are now a usage error,
    # on a g that holds the resonant mode 4 of u = 1/4 and a mean of 0
    g = tmp_path / "g.coef"
    g.write_text("dim=1\n0 0 0\n4 1 0\n1 1 0\n", encoding="utf-8")
    r = run_cli("solve", "--g", str(g), "--u", "1/4", "--verify", option + "=" + value)
    assert (r.returncode, r.stdout) == (2, "") and option in r.stderr


@pytest.mark.parametrize("part", ["nan", "inf", "-inf", "1e400"])
def test_solve_and_sobolev_refuse_a_coefficient_that_is_not_finite(tmp_path, part):
    g = tmp_path / "g.coef"
    g.write_text(f"dim=1\n1 1 0\n-3 0.5 {part}\n4 1 0\n", encoding="utf-8")
    for args in (["solve", "--g", str(g), "--u", "golden", "--verify"],
                 ["sobolev", "--f", str(g), "--alpha", "1"]):
        r = run_cli(*args)
        assert (r.returncode, r.stdout) == (3, ""), args
        assert r.stderr == f"error[parse]: line 3: coefficient 0.5 {part} is not finite\n", args


def test_solve_verify_takes_the_residual_of_a_corrupted_reread(tmp_path, monkeypatch, capsys):
    from heisencoh import coboundary
    from heisencoh.coefficients import CoefficientField, read_coefficients
    from heisencoh.precision import PrecisionReal

    real_write = cli.write_coefficients
    written = []

    def write(field, fh):  # after the digest is taken, one coefficient moves
        digest = real_write(field, fh)
        entries = dict(field.items())
        entries[max(entries)] += 1e-3
        written.append(CoefficientField(field.dim, entries))
        fh.seek(0)
        fh.truncate()
        real_write(written[-1], fh)
        return digest

    monkeypatch.setattr(cli, "write_coefficients", write)
    g_path = GOLDEN / "solve_g_dim2_r8.txt"
    with open(g_path, encoding="utf-8") as fh:
        g = read_coefficients(fh)
    u = [PrecisionReal.parse("golden"), PrecisionReal.parse("sqrt2")]
    argv = ["solve", "--g", str(g_path), "--u", "golden,sqrt2", "--verify",
            "--out", str(tmp_path / "f.txt")]
    assert cli.main(argv) == 0
    diag = dict(ln.split("=", 1) for ln in capsys.readouterr().out.splitlines() if " " not in ln)
    (f_back,) = written
    # 17 significant digits give each double back
    assert float(diag["verify_residual"]) == coboundary.residual(f_back, g, u)
    assert float(diag["verify_residual"]) > 1e-4 > float(diag["residual_sup"])


def test_solve_verify_reads_the_out_file_when_its_bytes_differ(tmp_path, monkeypatch, capsys):
    # each variant of the text of f replaces the --out file after the digest
    # is taken: --verify prints the residual of what read_coefficients makes
    # of it against g, or the run stops with the error that reading raises
    import io

    from heisencoh import coboundary
    from heisencoh.coefficients import read_coefficients
    from heisencoh.errors import DomainError, ParseError

    g_path = tmp_path / "g.txt"
    g_path.write_text("dim=2\n0 0 0 0\n-1 2 0.5 -1e-300\n3 -4 -0.0 2.5\n2 1 -1.25 0.75\n",
                      encoding="utf-8")
    with open(g_path, encoding="utf-8") as fh:
        g = read_coefficients(fh)
    sol_u = cli._parse_vector("golden,sqrt2", 128)
    sol = coboundary.solve(coboundary.CoboundaryProblem(g, sol_u))
    buf = io.StringIO()
    cli.write_coefficients(sol.f, buf)
    text = buf.getvalue()
    head, *lines = text.splitlines(keepends=True)
    first = lines[0].split()
    last = lines[-1].split()
    variants = {
        "as written": text,
        "blank lines": "\n" + head + "\n" + "".join(lines) + "  \n",
        "spaced header": " dim=2 \n" + "".join(lines),
        "other digits": head + " ".join(first[:2] + [format(float(v), ".25g") for v in first[2:]])
        + "\n" + "".join(lines[1:]),
        "out of order": head + "".join(reversed(lines)),
        "duplicate": head + lines[0] + "".join(lines),
        "missing line": head + "".join(lines[:-1]),
        "extra line": text + "5 5 1 0\n",
        "other value": head + "".join(lines[:-1]) + " ".join(last[:2] + ["2.4", last[3]]) + "\n",
        "other dim": "dim=3\n",
        "bad dim": "dim=two\n" + "".join(lines),
        "no header": "".join(lines),
        "empty": "",
        "short line": head + " ".join(first[:3]) + "\n" + "".join(lines[1:]),
        "bad number": head + " ".join(first[:3] + ["x"]) + "\n" + "".join(lines[1:]),
        "nan": head + "".join(lines[:-1]) + " ".join(last[:2] + ["nan", last[3]]) + "\n",
    }
    real_write = cli.write_coefficients
    real_read = cli.read_coefficients
    reads = []
    monkeypatch.setattr(cli, "read_coefficients", lambda fh: reads.append(fh) or real_read(fh))
    argv = ["solve", "--g", str(g_path), "--u", "golden,sqrt2", "--verify",
            "--out", str(tmp_path / "f.txt")]
    codes = {}
    for name, variant in variants.items():
        def write(field, fh, variant=variant):
            digest = real_write(field, fh)
            fh.seek(0)
            fh.truncate()
            fh.write(variant)
            return digest

        monkeypatch.setattr(cli, "write_coefficients", write)
        try:
            f_back = read_coefficients(io.StringIO(variant))
            v = coboundary.residual(f_back, g, sol_u)
            want = 0, f"verify_residual={cli._fmt(v)}\n"
        except ParseError as exc:
            want = 3, f"error[parse]: {exc}\n"
        except DomainError as exc:
            want = 3, f"error[domain]: {exc}\n"
        reads.clear()
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert (rc, out.splitlines(keepends=True)[-1] if rc == 0 else err) == want, name
        codes[name] = rc
        # only bytes other than those written are read back
        assert len(reads) == (1 if variant == text else 2), name
    equal = set()
    for name, variant in variants.items():
        try:
            if read_coefficients(io.StringIO(variant)) == sol.f:
                equal.add(name)
        except ParseError:
            pass
    assert equal == {"as written", "blank lines", "spaced header", "other digits", "out of order"}
    # a mode g lacks gets a residual too; a nan is refused where it is read
    assert {name for name, rc in codes.items() if rc} == {
        "duplicate", "other dim", "bad dim", "no header", "empty", "short line", "bad number",
        "nan",
    }


def _seeded_g(path, dim, radius):
    """A mean-free field on the box |k| <= radius, c_k = (x + iy) / (1 + |k|)
    with x, y standard normal from a seeded generator, written to path."""
    import itertools
    import random

    rng = random.Random(radius)
    lines = [f"dim={dim}"]
    for k in itertools.product(range(-radius, radius + 1), repeat=dim):
        if any(k):
            w = 1.0 / (1 + max(map(abs, k)))
            lines.append(" ".join(map(str, k)) + f" {rng.gauss(0, 1) * w!r} {rng.gauss(0, 1) * w!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _traced_peak(argv):
    """The tracemalloc peak above the start of a second in-process run of
    argv, after a first run has loaded argparse and the lazy imports."""
    import tracemalloc

    from heisencoh import coboundary, fourier, precision  # noqa: F401  (imported before tracing)

    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_solve_verify_out_memory_peak(tmp_path, capsys):
    # dim 2, R = 32: g, f and the divisors are held once, f goes straight
    # into the --out file, and --verify takes the digest of the file 64 KiB
    # at a time, building neither its text nor a second field.  The traced
    # peak is about 1.6 MiB; the text of f re-read through a field brings
    # it to 2.0 MiB.
    g_path = _seeded_g(tmp_path / "g.txt", 2, 32)
    peak = _traced_peak(["solve", "--g", str(g_path), "--u", "golden,sqrt2", "--verify",
                         "--out", str(tmp_path / "f.txt")])
    capsys.readouterr()
    assert peak < 1.8 * 2**20, peak


def test_solve_norms_memory_peak(tmp_path, capsys):
    # dim 1, R = 4096: the Sobolev quadrature holds f_hat and works on a few
    # node rows at a time, so no array spans all 24 x 8193 nodes or modes.
    # The traced peak is about 6.1 MiB; arrays over every node took 15.8 MiB.
    g_path = _seeded_g(tmp_path / "g.txt", 1, 4096)
    peak = _traced_peak(["solve", "--g", str(g_path), "--u", "golden", "--alpha-list", "0,1",
                         "--verify", "--out", str(tmp_path / "f.txt")])
    capsys.readouterr()
    assert peak < 10 * 2**20, peak


def test_classify_rounds_a_subnormal_distance_once():
    # 12 / 10^309 lies below the least normal double: rounded first to 53
    # bits and then at 2^-1074 it would print 1.2000000000000003e-308
    r = run_cli("classify", "--vector", "3/1" + "0" * 309, "--kmax", "12")
    assert r.returncode == 0, r.stderr
    assert "witness k=4 dist=1.1999999999999998e-308 " in r.stdout


def test_classify_weight_halfway_between_two_doubles_ends():
    # 2 * 3^34 is exact and halfway between two doubles: it is rounded once,
    # ties to even, and no interval refinement is asked to separate it
    r = run_cli("classify", "--vector", "1/2", "--kmax", "3", "--s-grid", "34")
    assert r.returncode == 0, r.stderr
    assert " shell_max=33354363399333136 " in r.stdout
    assert 2 * 3**34 - 2 == 33354363399333136 and 2 * 3**34 + 2 == float(2 * 3**34 + 2)


def test_closed_stdout_is_not_a_domain_error():
    # the reader closes the pipe after one line of a report far larger than
    # the pipe holds: the command ends quietly with status 1 at its next write
    args = ["classify", "--vector", "1/1" + "0" * 30, "--kmax", "3000"]
    proc = subprocess.Popen(CMD + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"verdict=LiouvilleEvidence\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


G_DIM1, G_DIM2 = str(GOLDEN / "solve_g_dim1_r32.txt"), str(GOLDEN / "solve_g_dim2_r8.txt")
FORMAT_COMMANDS = {
    "classify": ["classify", "--vector", "golden", "--kmax", "10"],
    "solve": ["solve", "--g", G_DIM1, "--u", "golden"],
    "rep character": ["rep", "character", "--p", "2", "--range", "1"],
    "rep matrix": ["rep", "matrix", "--p", "2", "--element", "0 0 1"],
    "fan": ["fan", "--lambda", "1", "--xi", "3", "--n", "1"],
    "sobolev": ["sobolev", "--f", G_DIM1, "--alpha", "0"],
    "cohomology": ["cohomology", "--n", "1"],
}


@pytest.mark.parametrize("value", ["text", "json"])
@pytest.mark.parametrize("command", sorted(FORMAT_COMMANDS))
def test_format_is_a_usage_error(command, value, capsys):
    # every command prints text only, and has no --format option
    assert cli.main(FORMAT_COMMANDS[command] + ["--format", value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--format" in err


@pytest.mark.parametrize("u, lines", [
    # f_{+-1} = 1e308 / (1 - e^{+-2 pi i / 1000}) has an infinite part
    ("1/1000", "1 1e308 0\n-1 1e308 0\n"),
    # |f_{+-1}| is about 1e200: finite, but |f_k|^2 is not
    ("golden", "1 1e200 1e200\n-1 1e200 -1e200\n"),
    # the phases +-10^-400 are no integers, but their divisors round to 0j
    pytest.param("1/1" + "0" * 400, "1 1 0\n-1 1 0\n", id="1/10^400"),
])
def test_solve_refuses_a_coefficient_it_cannot_measure(tmp_path, u, lines):
    g = tmp_path / "g.coef"
    g.write_text("dim=1\n" + lines, encoding="utf-8")
    out = tmp_path / "f.coef"
    r = run_cli("solve", "--g", str(g), "--u", u, "--verify", "--out", str(out))
    assert (r.returncode, r.stdout) == (3, "")
    # the least key in key order is named
    assert r.stderr.startswith("error[domain]: f_k = g_k / d_k at k=(-1,) is ")
    assert r.stderr.endswith(", whose |f_k|^2 is not a finite double\n")
    assert not out.exists()


@pytest.mark.parametrize("args, line", [
    (["solve", "--g", G_DIM2, "--u", "golden,sqrt2", "--alpha-list", "400"],
     "norm alpha=400 f=inf g=inf ratio=nan"),
    (["solve", "--g", G_DIM1, "--u", "golden", "--alpha-list", "400"],
     "norm alpha=400 f=inf g=inf ratio=nan"),
    (["sobolev", "--f", G_DIM1, "--alpha", "400"], "norm=inf"),
], ids=["solve-dim2", "solve-dim1", "sobolev"])
def test_an_overflowing_norm_prints_inf(tmp_path, args, line):
    if args[0] == "solve":
        args = args + ["--out", str(tmp_path / "f.coef")]
    r = run_cli(*args)
    assert (r.returncode, r.stderr) == (0, "")
    assert line in r.stdout.splitlines()


def test_a_field_of_zeros_has_sobolev_norm_0_at_any_alpha(tmp_path):
    # the multiplier overflows a double at alpha 700, but f_hat is 0 at every node
    f = tmp_path / "f.coef"
    f.write_text("dim=1\n1 0 0\n-2 0 0\n", encoding="utf-8")
    r = run_cli("sobolev", "--f", str(f), "--alpha", "700")
    assert (r.returncode, r.stdout, r.stderr) == (0, "norm=0\n", "")


def test_solve_divides_a_divisor_below_the_data_tolerance(tmp_path, capsys):
    # <+-1, u> = +-10^-15 is no integer, so the modes are not resonant,
    # though |d_{+-1}| (about 6.3e-15) is below the 1e-12 tolerance on g
    import io
    from fractions import Fraction

    from heisencoh.coefficients import read_coefficients
    from heisencoh.diophantine import complex_divisor

    g = tmp_path / "g.coef"
    g.write_text("dim=1\n1 1 0\n-1 1 0\n", encoding="utf-8")
    assert cli.main(["solve", "--g", str(g), "--u", "1/1000000000000000"]) == 0
    out, err = capsys.readouterr()
    f = dict(read_coefficients(io.StringIO(out)).items())
    assert f == {(-1,): complex(0.49999999999999994, -159154943091895.34),
                 (1,): complex(0.49999999999999994, 159154943091895.34)}
    for k, fk in f.items():
        assert fk * complex_divisor([Fraction(1, 10**15)], k) == pytest.approx(1, rel=1e-15)
    diag = dict(ln.split("=", 1) for ln in err.splitlines() if " " not in ln)
    assert diag["argmin_k"] == "-1"
    # |f_k| is about 1.6e14, so the rounding of d_k alone may leave about
    # 1e-16 of residual: the bound covers the exact l1 sum, from the doubles
    import mpmath

    with mpmath.workprec(300):
        d = 1 - mpmath.expjpi(2 * mpmath.mpf(1) / 10**15)
        l1 = sum(abs(mpmath.mpc(fk.real, fk.imag) * (d if k == (1,) else mpmath.conj(d)) - 1)
                 for k, fk in f.items())
    assert l1 <= float(diag["residual_sup"]) < 1e-15


WIDE = 10**24


@pytest.mark.parametrize("command, lines, message", [
    (["solve", "--u", "golden", "--alpha-list", "1"], f"dim=1\n{WIDE} 1 0\n-{WIDE} 1 0\n",
     f"support radius {WIDE} needs a transform of {2**82} points, more than 2^20"),
    (["sobolev", "--alpha", "1"], f"dim=1\n{WIDE} 1 0\n-{WIDE} 1 0\n",
     f"support radius {WIDE} needs a transform of {2**82} points, more than 2^20"),
    # 4 * 262145 is just above 2^20
    (["solve", "--u", "golden", "--alpha-list", "0"], "dim=1\n262145 1 0\n",
     "support radius 262145 needs a transform of 2097152 points, more than 2^20"),
    (["sobolev", "--alpha", "1"], "dim=1\n262145 1 0\n",
     "support radius 262145 needs a transform of 2097152 points, more than 2^20"),
], ids=["solve-1e24", "sobolev-1e24", "solve-262145", "sobolev-262145"])
def test_a_field_too_wide_for_the_transform_is_a_domain_error(tmp_path, monkeypatch, capsys,
                                                              command, lines, message):
    # refused before the transform allocates anything
    from heisencoh import fourier

    def refuse(*args, **kwargs):
        raise AssertionError("the transform ran")

    monkeypatch.setattr(fourier, "_roots", refuse)
    monkeypatch.setattr(fourier, "_fft", refuse)
    g = tmp_path / "g.coef"
    g.write_text(lines, encoding="utf-8")
    flag = "--g" if command[0] == "solve" else "--f"
    assert cli.main([*command, flag, str(g)]) == 3
    assert capsys.readouterr() == ("", f"error[domain]: {message}\n")


@pytest.mark.parametrize("lines, u", [
    (f"dim=1\n{WIDE} 1 0\n-{WIDE} 1 0\n", "golden"),
    (f"dim=2\n{WIDE} 0 1 0\n-{WIDE} 0 1 0\n", "golden,sqrt2"),
    ("dim=2\n4096 0 1 0\n-4096 0 1 0\n", "golden,sqrt2"),
], ids=["dim1-1e24", "dim2-1e24", "dim2-4096"])
def test_a_sparse_field_of_any_radius_solves(tmp_path, capsys, lines, u):
    # the residual bound sums over the modes, so no grid limits the radius
    g = tmp_path / "g.coef"
    g.write_text(lines, encoding="utf-8")
    argv = ["solve", "--g", str(g), "--u", u, "--verify", "--out", str(tmp_path / "f.coef")]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    diag = dict(ln.split("=", 1) for ln in out.splitlines() if " " not in ln)
    assert err == "" and 0 < float(diag["residual_sup"]) < 1e-14
    assert diag["verify_residual"] == diag["residual_sup"]


@pytest.mark.parametrize("prec", ["-3", "0", "63"])
def test_liouville_needs_64_bits_like_every_named_constant(tmp_path, capsys, prec):
    g = tmp_path / "g.coef"
    g.write_text("dim=1\n1 1 0\n", encoding="utf-8")
    for argv in (["classify", "--vector", "liouville", "--kmax", "10"],
                 ["solve", "--g", str(g), "--u", "liouville"]):
        assert cli.main(argv + ["--prec", prec]) == 3, argv
        assert capsys.readouterr() == ("", "error[domain]: precision must be at least 64 bits\n")


@pytest.mark.parametrize("vector", ["pi", "golden,sqrt2", "liouville"])
def test_a_precision_above_max_prec_is_refused_before_any_work(tmp_path, capsys, vector):
    from heisencoh.precision import MAX_PREC

    g = tmp_path / "g.coef"
    g.write_text("dim=1\n1 1 0\n-1 1 0\n", encoding="utf-8")
    for argv in (["classify", "--vector", vector, "--kmax", "1000000"],
                 ["solve", "--g", str(g), "--u", vector]):
        start = time.perf_counter()
        assert cli.main(argv + ["--prec", str(MAX_PREC + 1)]) == 3, argv
        assert time.perf_counter() - start < 0.2, argv
        assert capsys.readouterr() == (
            "", f"error[domain]: precision must be at most {MAX_PREC} bits\n"
        )


def test_max_prec_itself_still_runs(tmp_path, capsys):
    from heisencoh.precision import MAX_PREC

    g = tmp_path / "g.coef"
    g.write_text("dim=1\n1 1 0\n-1 1 0\n", encoding="utf-8")
    assert cli.main(["classify", "--vector", "pi", "--kmax", "10", "--prec", str(MAX_PREC)]) == 0
    out = capsys.readouterr().out
    assert "verdict=" in out and f"precision_bits={MAX_PREC}\n" in out
    assert cli.main(["solve", "--g", str(g), "--u", "e", "--prec", str(MAX_PREC)]) == 0
    assert capsys.readouterr().err.startswith("min_divisor=")
