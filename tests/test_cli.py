import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protek import NoConvergence, _split, asymptotics, cli, counting, families, oracle
from protek.cli import FIGURE_PANELS, main
from protek.families import BUILTIN_NAMES
from conftest import assert_no_child_left, split_on


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstantsCommand:
    def test_plane_csv(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--family", "plane")
        assert code == 0
        assert "kappa,0.5625," in out
        assert "d,4.0," in out
        assert "tau,0.5," in out

    def test_riordan_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "constants", "--family", "riordan", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "double-exponential"
        assert payload["constants"]["kappa"] == "6.0"
        assert abs(float(payload["constants"]["d"]) - 16.3858) < 1e-3

    def test_weights_cubic(self, capsys):
        code, out, _ = run_cli(
            capsys, "constants", "--weights", "1,0,0,1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["constants"]["r"] == "3"
        assert payload["constants"]["D"] == "3"

    def test_bad_weights(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--weights", "1,1")
        assert code == 1
        assert "j >= 2" in err

    def test_weight_that_is_not_a_rational(self, capsys):
        code, out, err = run_cli(capsys, "constants", "--weights", "1,x")
        assert code == 1
        assert out == ""
        assert err == "error: weight w1 is not a rational: 'x'\n"

    def test_missing_family(self, capsys):
        code, _, err = run_cli(capsys, "constants")
        assert code == 1
        assert "family" in err

    def test_csv_error_estimate_empty_without_estimate(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--family", "cayley")
        assert code == 0
        rows = {line.split(",")[0]: line.split(",") for line in out.splitlines()}
        assert rows["quantity"] == ["quantity", "value", "error_estimate"]
        assert len(rows["tau"]) == 3 and rows["tau"][2] == ""
        assert rows["lambda1"][2] != ""

    @pytest.mark.parametrize("family", ["plane", "cayley", "pruned-binary"])
    def test_low_precision_limits_match(self, capsys, family):
        # lambda1 and lambda2 read the cancellation-guarded eta recursion,
        # so 64 bits print the same 17 digits as 256
        def values(prec):
            code, out, err = run_cli(
                capsys, "constants", "--family", family, "--prec", prec
            )
            assert (code, err) == (0, "")
            rows = dict(line.split(",", 2)[:2] for line in out.splitlines())
            return [rows[q] for q in ("lambda1", "lambda2", "kappa")]

        assert values("64") == values("256")

    def test_entire_phi_with_distant_tau(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--weights", "1,0,1/10000000000000")
        assert code == 0
        assert "tau,3162277.6601683795," in out.splitlines()

    # The full CSV of one family per regime at 96 bits, so that reordering
    # a sum in the constants routine cannot move a printed digit unseen; the
    # byte-exact digest pool holds constants at 4096 bits only.  ROADMAP
    # item 3 re-records these strings.
    PINNED_CSV = {
        "pruned-binary": (
            "quantity,value,error_estimate\n"
            "regime,exponential,\n"
            "precision_bits,96,\n"
            "tau,1.0,\n"
            "rho,0.25,\n"
            "phi_tau,4.0,\n"
            "phi2_tau,2.0,\n"
            "a,-2.0,\n"
            "lambda1,3.6640211667090865,9.471272728322162e-26\n"
            "kappa,0.91600529167727163,\n"
            "d,2.0,\n"
            "zeta,0.5,\n"
            "lambda2,5.1321525072056984,7.226013919702456e-31\n"
            "D,1,\n"
        ),
        "riordan": (
            "quantity,value,error_estimate\n"
            "regime,double-exponential,\n"
            "precision_bits,96,\n"
            "tau,0.5,\n"
            "rho,0.33333333333333331,\n"
            "phi_tau,1.5,\n"
            "phi2_tau,16.0,\n"
            "a,-0.4330127018922193,\n"
            "lambda1,3.0,\n"
            "kappa,6.0,\n"
            "d,16.385756516576414,\n"
            "r,2,\n"
            "mu,0.24703970008338957,1.504632769052528e-36\n"
            "D,1,\n"
        ),
    }

    @pytest.mark.parametrize("family", sorted(PINNED_CSV))
    def test_pinned_csv_at_96_bits(self, capsys, family):
        code, out, err = run_cli(capsys, "constants", "--family", family, "--prec", "96")
        assert (code, err) == (0, "")
        assert out == self.PINNED_CSV[family]

    def test_precision_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PROTEK_PREC", "192")
        code, out, _ = run_cli(capsys, "constants", "--family", "plane")
        assert code == 0
        assert "precision_bits,192," in out


# The full CSV of each rewritten renderer at a precision the byte-exact
# digest pool never runs (it holds 256 to 4096 bits), with its exit code:
# the rhoh runs cover `ok`, `needs-more-precision` and `no-convergence`
# rows, which exit 1.
LOW_PRECISION_CSV = {
    "cdf --family plane --n 20 --prec 96": (
        0,
        ("h,p_exact,p_asymptotic,abs_diff\n"
         "0,0,1.300729765406762e-5,1.300729765406762e-5\n"
         "1,0.041519644847013421,0.060054667895307945,0.018535023048294522\n"
         "2,0.48590616771687527,0.49503589692619859,0.0091297292093233152\n"
         "3,0.83604763306364119,0.83880145108698256,0.0027538180233413435\n"
         "4,0.95546721991080457,0.95700629232361401,0.0015390724128094425\n"
         "5,0.98838463217241570,0.98907380117630561,0.00068916900388995737\n"
         "6,0.99699751908486251,0.99725718637430938,0.0002596672894468352\n"
         "7,0.99922452184385734,0.99931359017926658,8.9068335409284177e-5\n"
         "8,0.99979942715832835,0.99982835335601805,2.8926197689651399e-5\n"
         "9,0.99994800774410969,0.99995708557661189,9.0778325022382442e-6\n"
         "10,0.99998648701555313,0.99998927122149417,2.7842059410577971e-6\n"
         "11,0.99999647703860114,0.99999731779458223,8.4075598108896371e-7\n"
         "12,0.99999907823576634,0.9999993294479711,2.5121220475364226e-7\n"
         "13,0.99999975781762308,0.99999983236195067,7.4544327541932226e-8\n"
         "14,0.99999993605932572,0.99999995809048503,2.203115930117279e-8\n"
         "15,0.99999998302459975,0.99999998952262104,6.4980213419677362e-9\n"
         "16,0.99999999547322660,0.99999999738065526,1.9074286627255528e-9\n"
         "17,0.99999999886830665,0.99999999934516381,4.7685716503817256e-10\n"
         "18,0.99999999943415332,0.99999999983629095,4.0213762874441108e-10\n"
         "19,1,0.99999999995907274,4.092726157894425e-11\n"),
    ),
    "rhoh --family plane --h-from 12 --h-to 16 --prec 64": (
        1,
        ("h,rho_h,delta,predicted,ratio,status\n"
         "12,0.25000000838190295,8.3819029529635299e-9,8.3819031715393066e-9,0.99999997392289408,ok\n"
         "13,0.25000000209547579,2.0954757733691772e-9,2.0954757928848267e-9,0.99999999068676926,ok\n"
         "14,0.25000000052386895,5.2386894663556078e-10,5.2386894822120667e-10,0.9999999969732013,ok\n"
         "15,,,1.3096723705530167e-10,,needs-more-precision\n"
         "16,,,3.2741809263825417e-11,,needs-more-precision\n"),
    ),
    "rhoh --weights 1,3,1/4 --h-from 2 --h-to 4 --prec 128": (
        1,
        ("h,rho_h,delta,predicted,ratio,status\n"
         "2,,,0.06574161874140981,,no-convergence\n"
         "3,,,0.049306214056057361,,no-convergence\n"
         "4,0.32009529237899925,0.070095292378999238,0.036979660542043019,1.8955093516693129,ok\n"),
    ),
    "expect --family cayley --n 28 --prec 64": (
        0,
        ("quantity,value\n"
         "e_exact_rational,24669877972734856586438651287255729405/6039636135796897751926517538878390272\n"
         "e_exact,4.0846629528750241\n"
         "e_asymptotic,4.1073256534667433\n"
         "abs_diff,0.022662700591719358\n"),
    ),
}


@pytest.mark.parametrize("args", list(LOW_PRECISION_CSV))
def test_pinned_csv_at_low_precision(capsys, args):
    code, out, err = run_cli(capsys, *args.split())
    assert (code, out, err) == (*LOW_PRECISION_CSV[args], "")


class TestCdfCommand:
    def test_plane_small(self, capsys):
        code, out, _ = run_cli(capsys, "cdf", "--family", "plane", "--n", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "h,p_exact,p_asymptotic,abs_diff"
        assert lines[2].startswith("1,0.60000000000000000,")
        assert lines[4].startswith("3,1,")

    def test_json_contains_rationals(self, capsys):
        code, out, _ = run_cli(
            capsys, "cdf", "--family", "plane", "--n", "4", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["rows"][1]["p_exact_rational"] == "3/5"

    def test_period_mismatch_exit(self, capsys):
        code, _, err = run_cli(capsys, "cdf", "--family", "complete-binary", "--n", "206")
        assert code == 1
        assert "206" in err

    def test_size_below_one_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "cdf", "--family", "plane", "--n", "0")
        assert code == 1
        assert out == ""
        assert err == "error: n must be >= 1\n"

    def test_no_tree_of_size_two(self, capsys):
        # riordan has w1 = 0 and period 1, so n = 2 passes the period test
        code, out, err = run_cli(capsys, "cdf", "--family", "riordan", "--n", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: riordan: no trees of size 2 exist")

    def test_exponent_beyond_the_precision_is_an_error(self, capsys):
        # kappa is about 2^137042 here: the exponent -kappa*n is known to
        # less than one unit, and its exp took minutes to evaluate and print
        code, out, err = run_cli(
            capsys, "cdf", "--weights", "1,2/7,3,1e400", "--n", "13", "--hmax", "0",
            "--prec", "300",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: weights(1,2/7,3,")
        assert err.endswith(
            "n = 13, h = 0: the limit law's exponent has magnitude 2^137367 or more, "
            "so its exp has no correct digit at 300 bits\n"
        )

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "cdf", "--family", "riordan", "--n", "13")
        _, out2, _ = run_cli(capsys, "cdf", "--family", "riordan", "--n", "13")
        assert out1 == out2

    # 4*log_d(64) is exactly 12 for plane and 24 for pruned-binary, so logs
    # taken at 1024 bits could round its ceiling either way
    @pytest.mark.parametrize("family, last", [("plane", 22), ("pruned-binary", 34)])
    def test_default_rows_do_not_move_with_precision(self, capsys, family, last):
        for prec in ("64", "256", "1024"):
            code, out, err = run_cli(
                capsys, "cdf", "--family", family, "--n", "64", "--prec", prec
            )
            assert (code, err) == (0, "")
            hs = [line.split(",")[0] for line in out.splitlines()[1:]]
            assert hs == [str(h) for h in range(last + 1)]

    def test_default_hmax_is_the_same_at_every_precision(self):
        for name in families.BUILTIN_NAMES:
            f = families.make_builtin(name)
            caps = [
                [asymptotics.default_hmax(asymptotics.family_constants(f, p), n)
                 for n in range(1, 301)]
                for p in (64, 256, 1024)
            ]
            assert caps[0] == caps[1] == caps[2], name

    def test_constants_solved_once_at_the_given_precision(self, capsys, monkeypatch):
        # the default table length reads the constants the rows already use
        calls = []
        solve = asymptotics.solve_tau_rho

        def counted(f, precision_bits):
            calls.append(precision_bits)
            return solve(f, precision_bits)

        monkeypatch.setattr(asymptotics, "solve_tau_rho", counted)
        monkeypatch.setattr(families, "_STORE", {})
        code, _, _ = run_cli(capsys, "cdf", "--family", "cayley", "--n", "30", "--prec", "64")
        assert code == 0
        assert calls == [64]


class TestExpectCommand:
    # The double-exponential regime has no expectation asymptotic, and its
    # CDF rows stop at the protection bound (6 for riordan at n = 205).
    PINNED_CSV = {
        "--family riordan --n 205": (
            "quantity,value\n"
            "e_exact_rational,5391648788874949227656131906141512316772011064263128522312804788561050264662691931402467242074/2688552095235561062451417746952849811048372259114032896128129275489343520033837352967458428561\n"
            "e_exact,2.0054098257681530\n"
        ),
        "--family complete-binary --n 205": (
            "quantity,value\n"
            "e_exact_rational,27736631059708915526493330119456306688362179192686059072/10005422025158758612847010348009546844788044869638107545\n"
            "e_exact,2.7721600338261405\n"
        ),
        "--weights 1,0,1/6,1/10 --n 61": (
            "quantity,value\n"
            "e_exact_rational,611861056759132158158392238815479749/309760765105789202769083749302450860\n"
            "e_exact,1.9752697103203821\n"
        ),
    }

    def test_double_exponential_solves_no_constants(self, capsys, monkeypatch):
        # the regime follows from w1 alone; no constant is printed
        solves = []
        constants = cli.family_constants
        monkeypatch.setattr(
            cli, "family_constants", lambda *args: solves.append(args) or constants(*args)
        )
        for name in ("riordan", "cayley"):
            code, _, _ = run_cli(capsys, "expect", "--family", name, "--n", "31")
            assert code == 0
        assert [f.name for f, _ in solves] == ["cayley"]

    @pytest.mark.parametrize("args", sorted(PINNED_CSV))
    def test_pinned_csv_double_exponential(self, capsys, args):
        code, out, err = run_cli(capsys, "expect", *args.split())
        assert (code, err) == (0, "")
        assert out == self.PINNED_CSV[args]

    def test_plane_small(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "--family", "plane", "--n", "4")
        assert code == 0
        assert "e_exact_rational,8/5" in out
        assert "e_asymptotic," in out

    def test_double_exponential_suppresses_asymptotic(self, capsys):
        code, out, _ = run_cli(
            capsys, "expect", "--family", "complete-binary", "--n", "25"
        )
        assert code == 0
        assert "e_asymptotic" not in out
        value = float(out.splitlines()[2].split(",")[1])
        assert 1.5 < value < 2.5

    def test_double_exponential_json_nulls(self, capsys):
        code, out, _ = run_cli(
            capsys, "expect", "--family", "complete-binary", "--n", "25",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["e_asymptotic"] is None
        assert payload["abs_diff"] is None
        assert 1.5 < float(payload["e_exact"]) < 2.5

    def test_single_vertex(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "--family", "plane", "--n", "1")
        assert code == 0
        assert "e_exact_rational,0/1" in out

    def test_family_and_weights_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expect", "--family", "plane", "--weights", "1,0,1", "--n", "5"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


class TestOracleCommand:
    def test_plane_passes(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--family", "plane", "--nmax", "6")
        assert code == 0
        assert "FAIL" not in out

    def test_weights_with_period(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--weights", "1,0,1", "--nmax", "7")
        assert code == 0
        assert "4,3,0/1,0/1,pass" in out

    def test_json_booleans(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--family", "plane", "--nmax", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["rows"] and all(row["match"] is True for row in payload["rows"])

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        exact = oracle.bounded_count

        def off_at_5_2(f, h, n):
            value = exact(f, h, n)
            return value + 1 if (n, h) == (5, 2) else value

        monkeypatch.setattr(oracle, "bounded_count", off_at_5_2)
        code, out, err = run_cli(capsys, "oracle", "--family", "plane", "--nmax", "6")
        assert code == 1
        assert out.startswith("n,h,oracle,series,match\n")
        assert "5,2,12/1,13/1,FAIL" in out.splitlines()
        assert err == "oracle mismatch at n=5, h=2: oracle=12, series=13\n"


    @pytest.mark.parametrize(
        "args",
        ["--family plane --nmax 11", "--weights 1,1/2,1/3 --nmax 10 --format json"],
    )
    def test_split_and_serial_print_the_same_bytes(self, capsys, monkeypatch, args):
        monkeypatch.setattr(families, "_STORE", {})
        monkeypatch.setattr(_split, "_cpus", lambda: 1)
        serial = run_cli(capsys, "oracle", *args.split())
        forked = split_on(monkeypatch, 2)
        assert run_cli(capsys, "oracle", *args.split()) == serial
        assert_no_child_left()
        # part 1 of the search, then level 1 of the windowed levels 1, 2
        assert forked == [[1], [1]]

    def test_probe_never_forks(self, capsys, monkeypatch):
        # the 23 trees of at most five vertices are below the work floor
        # even with a second CPU at hand
        def no_fork():
            raise AssertionError("oracle forked")

        monkeypatch.setattr(_split, "_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        code, _, _ = run_cli(capsys, "oracle", "--family", "plane", "--nmax", "5")
        assert code == 0


class TestRhohCommand:
    def test_plane_ratios_near_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "rhoh", "--family", "plane", "--h-from", "4", "--h-to", "5",
            "--prec", "192",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            ratio = float(line.split(",")[4])
            assert 0.9 < ratio < 1.1

    def test_no_convergence_row_exits_one(self, capsys, monkeypatch):
        solve = cli.solve_rho_h

        def fails_at_3(f, h, prec):
            if h == 3:
                raise NoConvergence("forced", None)
            return solve(f, h, prec)

        monkeypatch.setattr(cli, "solve_rho_h", fails_at_3)
        code, out, _ = run_cli(
            capsys, "rhoh", "--family", "plane", "--h-from", "2", "--h-to", "4"
        )
        assert code == 1
        statuses = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
        assert statuses == ["ok", "no-convergence", "ok"]
        assert out.splitlines()[2].startswith("3,,,")

    def test_h_below_two_is_an_error(self, capsys):
        code, out, err = run_cli(
            capsys, "rhoh", "--family", "plane", "--h-from", "1", "--h-to", "2"
        )
        assert code == 1
        assert out == ""
        assert err == "error: h must be >= 2\n"

    def test_one_tau_solve_per_precision(self, capsys, monkeypatch):
        # solve_rho_h reads tau and rho from the cached family constants
        calls = []
        solve = asymptotics.solve_tau_rho

        def counted(f, precision_bits):
            calls.append(precision_bits)
            return solve(f, precision_bits)

        monkeypatch.setattr(asymptotics, "solve_tau_rho", counted)
        monkeypatch.setattr(families, "_STORE", {})
        for prec in ("256", "128"):
            code, _, _ = run_cli(
                capsys, "rhoh", "--family", "plane", "--h-from", "2", "--h-to", "10",
                "--prec", prec,
            )
            assert code == 0
        assert calls == [256, 128]

    @pytest.mark.parametrize(
        "args",
        [
            "--family plane --h-from 2 --h-to 24 --prec 1024",
            "--family plane --h-from 12 --h-to 16 --prec 64",
            "--weights 1,3,1/4 --h-from 2 --h-to 4 --prec 128",
            "--family cayley --h-from 2 --h-to 9 --prec 96 --format json",
        ],
    )
    def test_split_and_serial_print_the_same_bytes(self, capsys, monkeypatch, args):
        monkeypatch.setattr(families, "_STORE", {})
        monkeypatch.setattr(_split, "_cpus", lambda: 1)
        serial = run_cli(capsys, "rhoh", *args.split())
        forked = split_on(monkeypatch, 2)
        assert run_cli(capsys, "rhoh", *args.split()) == serial
        assert_no_child_left()
        assert len(forked) == 1 and forked[0]

    def test_probe_never_forks(self, capsys, monkeypatch):
        # two levels at 256 bits are below the work floor even with a
        # second CPU at hand
        def no_fork():
            raise AssertionError("rhoh forked")

        monkeypatch.setattr(families, "_STORE", {})
        monkeypatch.setattr(_split, "_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        code, _, _ = run_cli(capsys, "rhoh", "--family", "plane", "--h-from", "2", "--h-to", "3")
        assert code == 0

    def test_precision_floor_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "rhoh", "--family", "complete-binary", "--h-from", "6",
            "--h-to", "6", "--prec", "128",
        )
        assert code == 1
        assert "needs-more-precision" in out

    def test_precision_floor_json_nulls(self, capsys):
        code, out, _ = run_cli(
            capsys, "rhoh", "--family", "complete-binary", "--h-from", "6",
            "--h-to", "6", "--prec", "128", "--format", "json",
        )
        assert code == 1
        (row,) = json.loads(out)["rows"]
        assert row["status"] == "needs-more-precision"
        assert row["rho_h"] is None and row["delta"] is None and row["ratio"] is None
        assert isinstance(row["predicted"], str)


class TestFigureCommand:
    def test_single_panel(self, capsys, tmp_path):
        out_dir = tmp_path / "figs"
        code, out, _ = run_cli(
            capsys, "figure", "--family", "complete-binary", "--n", "25",
            "--out", str(out_dir),
        )
        assert code == 0
        path = out_dir / "figure_complete-binary.csv"
        assert path.exists()
        content = path.read_text()
        assert content.splitlines()[0] == "family,n,h,p_exact,p_asymptotic,abs_diff"
        assert "complete-binary,25,2,0.95894467626867681," in content

    def test_byte_stable(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "figure", "--family", "complete-binary", "--n", "25", "--out", str(a))
        run_cli(capsys, "figure", "--family", "complete-binary", "--n", "25", "--out", str(b))
        fa = (a / "figure_complete-binary.csv").read_bytes()
        fb = (b / "figure_complete-binary.csv").read_bytes()
        assert fa == fb

    @pytest.mark.parametrize(
        "family, sizes", [("plane", (20,)), ("pruned-binary", (20, 100))]
    )
    def test_smaller_sizes_read_the_largest_solve(
        self, capsys, tmp_path, monkeypatch, family, sizes
    ):
        solves = []
        solve = counting._solve_system_raw

        def recorded(f, h, order, *args, **kwargs):
            solves.append((h, order))
            return solve(f, h, order, *args, **kwargs)

        def figure(out, *argv):
            monkeypatch.setattr(families, "_STORE", {})
            run_cli(capsys, "figure", "--family", family, *argv, "--out", str(out))
            return (out / f"figure_{family}.csv").read_bytes().splitlines()

        monkeypatch.setattr(counting, "_solve_system_raw", recorded)
        panel = figure(tmp_path / "panel")
        largest = max(dict(FIGURE_PANELS)[family])
        hs = [h for h, _ in solves]
        assert solves and {order for _, order in solves} == {largest}
        assert len(hs) == len(set(hs))  # one solve per h for the whole panel
        for n in sizes:
            alone = figure(tmp_path / str(n), "--n", str(n))
            prefix = f"{family},{n},".encode()
            assert [line for line in panel if line.startswith(prefix)] == alone[1:]
            assert panel[0] == alone[0]

    def test_unknown_panel(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "figure", "--family", "nope", "--out", str(tmp_path / "x")
        )
        assert code == 1
        assert "panel" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["--family", "plane", "--n", "7"],
                "error: no figure panel has size 7; panel sizes: 20, 100, 200\n",
                id="plane-7",
            ),
            pytest.param(
                ["--n", "20,7"],
                "error: no figure panel has size 7; "
                "panel sizes: 20, 25, 100, 105, 200, 205\n",
                id="all-20-7",
            ),
        ],
    )
    def test_size_of_no_panel_is_an_error(self, capsys, tmp_path, argv, message):
        out_dir = tmp_path / "figs"
        code, out, err = run_cli(capsys, "figure", *argv, "--out", str(out_dir))
        assert (code, out, err) == (1, "", message)
        assert not out_dir.exists()

    def test_size_selects_the_panels_that_have_it(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "figure", "--n", "20", "--out", str(tmp_path))
        assert code == 0
        names = ("plane", "cayley", "pruned-binary")
        paths = [tmp_path / f"figure_{name}.csv" for name in names]
        assert sorted(tmp_path.iterdir()) == sorted(paths)
        assert out == "".join(f"wrote {path}\n" for path in paths)


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "argv, env, message",
        [
            pytest.param(["constants", "--family", "plane", "--prec", "0"], None,
                         "error: argument", id="prec-0"),
            pytest.param(["constants", "--family", "plane", "--prec", "4"], None,
                         "error: argument", id="prec-4"),
            pytest.param(["constants", "--family", "plane"], "abc", "error: argument",
                         id="env-prec-abc"),
            pytest.param(["cdf", "--family", "plane", "--n", "5", "--hmax", "-1"], None,
                         "error: argument", id="hmax-negative"),
            pytest.param(["oracle", "--family", "plane", "--nmax", "0"], None,
                         "error: argument", id="nmax-0"),
            pytest.param(["oracle", "--family", "plane", "--nmax", "-3"], None,
                         "error: argument", id="nmax-negative"),
            pytest.param(["rhoh", "--family", "plane", "--h-from", "5", "--h-to", "3"],
                         None, "error: argument", id="h-to-below-h-from"),
            pytest.param(["figure", "--family", "plane", "--n", "abc"], None,
                         "error: argument", id="figure-n-abc"),
            pytest.param(["figure", "--family", "plane", "--format", "json"], None,
                         "error: unrecognized arguments: --format json",
                         id="figure-format-json"),
        ],
    )
    def test_rejected_with_exit_two(
        self, capsys, monkeypatch, tmp_path, argv, env, message
    ):
        if env is not None:
            monkeypatch.setenv("PROTEK_PREC", env)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ("cdf", "expect"))
    def test_d_that_rounds_to_one_exits_one(self, capsys, command):
        # zeta = 1 - 2e-400 rounds to 1 at 256 bits, so log(d) is 0 there
        argv = [command, "--weights", "1,1e400,1", "--n", "5"]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-m", "protek", *argv], env=env, capture_output=True, text=True
        )
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr
        assert "d = 1.0 at 256 bits" in run.stderr
        assert run_cli(capsys, *argv, "--prec", "2000")[0] == 0

    @pytest.mark.parametrize(
        "argv",
        (
            ["expect", "--weights", "1,1e400,1", "--n", "17", "--prec", "2000"],
            ["cdf", "--weights", "1,1e400,1", "--n", "17", "--hmax", "3", "--format", "json"],
            ["oracle", "--weights", "1,1e400,1", "--nmax", "12"],
        ),
        ids=("expect", "cdf-json", "oracle"),
    )
    def test_exact_rationals_beyond_4300_digits_print(self, capsys, argv):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-m", "protek", *argv], env=env, capture_output=True, text=True
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert max(map(len, run.stdout.replace('"', ",").split(","))) > 4300
        # main lifts the limit for its own run only
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert run_cli(capsys, *argv) == (0, run.stdout, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


class TestOutPath:
    def test_unwritable_target_leaves_no_file(self, capsys, tmp_path):
        argv = ["expect", "--family", "plane", "--n", "4", "--out"]
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, *argv, str(target))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"
        # the target is a directory: the temporary file is written, then removed
        (tmp_path / "dir").mkdir()
        code, _, err = run_cli(capsys, *argv, str(tmp_path / "dir"))
        assert code == 1
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path / 'dir'}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]

    def test_writes_only_the_target(self, capsys, tmp_path):
        argv = ["expect", "--family", "plane", "--n", "4"]
        _, stdout, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (0, "")
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
        assert (tmp_path / "x.csv").read_text() == stdout


# Argv fuzzing: every argv the parser accepts, with builtins and weight
# vectors of huge, tiny and zero entries, ends in exit 0, or in exit 1 with
# one "error: " line (or, for rhoh, a row that is not ok), never in a
# traceback.  Sizes stay small, so each case takes milliseconds and the
# test a few seconds.
ENTRIES = ("0", "1", "1/2", "2/7", "3", "1e400", "1e-400", "10000000000000",
           "1/10000000000000")
FAMILIES = st.one_of(
    st.sampled_from(BUILTIN_NAMES).map(lambda name: ["--family", name]),
    st.lists(st.sampled_from(ENTRIES), min_size=1, max_size=4).map(
        lambda tail: ["--weights", ",".join(["1", *tail])]
    ),
)
PREC = st.sampled_from(((), ("--prec", "64"), ("--prec", "128"), ("--prec", "300")))
FORMAT = st.sampled_from(((), ("--format", "json")))
CASE_BUDGET_S = 10


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("constants", "cdf", "expect", "oracle", "rhoh", "figure")))
    if command == "figure":
        argv = ["figure"]
        if draw(st.booleans()):
            argv += ["--family", draw(st.sampled_from(("plane", "riordan", "cayley", "binary")))]
        sizes = draw(st.sets(st.sampled_from((20, 25, 7)), min_size=1))
        argv += ["--n", ",".join(map(str, sorted(sizes)))]
        if draw(st.booleans()):
            argv += ["--hmax", str(draw(st.integers(0, 4)))]
        return argv + list(draw(PREC))
    argv = [command, *draw(FAMILIES)]
    if command in ("cdf", "expect"):
        argv += ["--n", str(draw(st.integers(-2, 14)))]
    if command == "cdf" and draw(st.booleans()):
        argv += ["--hmax", str(draw(st.integers(0, 6)))]
    if command == "oracle":
        argv += ["--nmax", str(draw(st.integers(1, 8)))]
    if command == "rhoh":
        low = draw(st.integers(-1, 6))
        argv += ["--h-from", str(low), "--h-to", str(low + draw(st.integers(0, 3)))]
    return argv + list(draw(PREC)) + list(draw(FORMAT))


class TestArgvFuzz:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(argvs())
    def test_exit_zero_or_one_typed_error(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if argv[0] == "figure":
                argv = [*argv, "--out", os.path.join(tmp, "figs")]
            started = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            elapsed = time.perf_counter() - started
        assert elapsed < CASE_BUDGET_S, (argv, elapsed)
        assert code in (0, 1), argv
        if code == 0 or (argv[0] == "rhoh" and not err.getvalue()):
            assert err.getvalue() == ""
            assert code == 0 or "needs-more-precision" in out.getvalue() or (
                "no-convergence" in out.getvalue()
            )
        else:
            assert err.getvalue().startswith("error: "), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue()
