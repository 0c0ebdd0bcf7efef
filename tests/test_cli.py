"""End-to-end tests for the command-line interface (in-process)."""

import io
import json
import sys
from fractions import Fraction

import pytest

from darcais import cache as cache_mod
from darcais import polynomials, rootcert
from darcais.cli import EXIT_MATH_FAIL, EXIT_OK, EXIT_USAGE, main
from darcais.pf_tnn import ToeplitzSeq, pf_test
from darcais.polynomials import darcais_record
from darcais.rootcert import SturmChain

R_WITNESS_DET = int(
    "-2876174434925079210074718217371979999968306174665777544936215683258363"
    "5238442846206212181574841380899314958179875932914300484193239997757367"
    "230331714174414982312099840"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


class TestPoly:
    def test_rational_coefficients(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "2")
        assert code == EXIT_OK
        assert out == "0 3/2 1/2\n"

    def test_normalized_record(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "2", "--normalized")
        assert code == EXIT_OK
        assert out == "3 1\n"

    def test_constant_polynomial(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "0")
        assert code == EXIT_OK
        assert out == "1\n"

    def test_shifted(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "2", "--shifted")
        assert code == EXIT_OK
        assert out == "2 5/2 1/2\n"

    def test_shifted_normalized(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "2", "--shifted", "--normalized")
        assert code == EXIT_OK
        assert out == "4 5 1\n"

    def test_normalized_needs_positive_n(self, capsys):
        code, _, err = run(capsys, "poly", "--n", "0", "--normalized")
        assert code == EXIT_USAGE
        assert "n >= 1" in err

    def test_negative_n(self, capsys):
        code, _, err = run(capsys, "poly", "--n", "-1")
        assert code == EXIT_USAGE


class TestVerify:
    def test_proven_identity_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--conjecture", "1", "--max-n", "8")
        assert code == EXIT_OK
        reports = parse_lines(out)
        assert len(reports) == 8
        for n, rep in enumerate(reports, start=1):
            assert rep["kind"] == "identity"
            assert rep["target"] == {"n": n}
            assert rep["verdict"] == "pass"
            assert rep["details"]["routes"]["trivial_legs"]["status"] == "pass"

    def test_full_hook_route(self, capsys):
        code, out, _ = run(capsys, "verify", "--conjecture", "no", "--max-n", "6")
        assert code == EXIT_OK
        assert all(r["verdict"] == "pass" for r in parse_lines(out))

    def test_bound_refusal_and_force(self, capsys):
        code, _, err = run(capsys, "verify", "--conjecture", "no", "--max-n", "34")
        assert code == EXIT_USAGE
        assert "full_hooks" in err and "--force" in err and "33" in err

        code, out, _ = run(
            capsys, "verify", "--conjecture", "no", "--max-n", "34", "--force"
        )
        assert code == EXIT_OK
        assert len(parse_lines(out)) == 34

    def test_injected_error_fails_with_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--conjecture", "corollary", "--max-n", "6",
            "--inject-error", "binomials:2:1/7",
        )
        assert code == EXIT_MATH_FAIL
        reports = parse_lines(out)
        failing = reports[-1]
        assert failing["verdict"] == "fail"
        (witness,) = failing["witnesses"]
        assert witness["route"] == "binomials"
        assert witness["coefficient_index"] == 2
        expected = Fraction(witness["expected"])
        actual = Fraction(witness["actual"])
        assert actual - expected == Fraction(1, 7)

    def test_injection_route_must_exist(self, capsys):
        code, _, err = run(
            capsys,
            "verify", "--conjecture", "1", "--max-n", "3",
            "--inject-error", "astrology:0",
        )
        assert code == EXIT_USAGE
        assert "astrology" in err

    @pytest.mark.parametrize("route", ["full_hooks", "binomials", "series"])
    def test_injection_into_a_route_the_conjecture_does_not_run(self, capsys, route):
        code, out, err = run(
            capsys,
            "verify", "--conjecture", "1", "--max-n", "3",
            "--inject-error", f"{route}:0",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert route in err
        if route != "series":  # no longer a route at all
            assert "trivial_legs" in err

    def test_max_n_must_be_positive(self, capsys):
        code, _, _ = run(capsys, "verify", "--conjecture", "1", "--max-n", "0")
        assert code == EXIT_USAGE


class TestRoots:
    def test_normalized_numerator_certificate(self, capsys):
        code, out, _ = run(capsys, "roots", "--n", "10", "--sturm")
        assert code == EXIT_OK
        (report,) = parse_lines(out)
        d = report["details"]
        assert report["verdict"] == "pass"
        assert d["degree"] == 9
        assert d["square_free"] is True
        assert d["real_root_count"] == 7
        assert d["nonreal_pair_count"] == 1
        assert d["all_real_roots_negative"] is True
        assert len(d["intervals"]) == 7
        assert all(iv["count"] == 1 for iv in d["intervals"])

    def test_hurwitz_stable(self, capsys):
        code, out, _ = run(capsys, "roots", "--poly", "3 2 1", "--hurwitz")
        assert code == EXIT_OK
        (report,) = parse_lines(out)
        assert report["details"]["hurwitz"] == {
            "stable": True, "marginal": False, "stage": None,
        }

    def test_hurwitz_marginal(self, capsys):
        code, out, _ = run(capsys, "roots", "--poly", "2 0 1", "--hurwitz")
        assert code == EXIT_OK
        (report,) = parse_lines(out)
        assert report["details"]["hurwitz"] == {
            "stable": False, "marginal": True, "stage": 1,
        }

    def test_hurwitz_rejects_origin_root(self, capsys):
        code, _, err = run(capsys, "roots", "--poly", "0 1", "--hurwitz")
        assert code == EXIT_USAGE
        assert "origin" in err

    def test_parse_error_is_located(self, capsys):
        code, _, err = run(capsys, "roots", "--poly", "1 bogus")
        assert code == EXIT_USAGE
        assert "line 1" in err and "token 2" in err

    def test_polynomial_from_file(self, capsys, tmp_path):
        source = tmp_path / "poly.txt"
        source.write_text("-1 0 1\n")
        code, out, _ = run(
            capsys, "roots", "--poly", str(source), "--isolate", "--max-width", "1/4"
        )
        assert code == EXIT_OK
        (report,) = parse_lines(out)
        intervals = report["details"]["intervals"]
        assert len(intervals) == 2
        for iv in intervals:
            width = Fraction(iv["upper"]) - Fraction(iv["lower"])
            assert width <= Fraction(1, 4)

    def test_exactly_one_input(self, capsys):
        code, _, _ = run(capsys, "roots", "--n", "4", "--poly", "1 1")
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "roots")
        assert code == EXIT_USAGE

    def test_n_must_be_positive(self, capsys):
        code, _, _ = run(capsys, "roots", "--n", "0")
        assert code == EXIT_USAGE


class TestPF:
    def test_short_failing_sequence(self, capsys):
        code, out, _ = run(capsys, "pf", "--coeffs", "2,2,1")
        assert code == EXIT_MATH_FAIL
        (report,) = parse_lines(out)
        assert report["verdict"] == "fail"
        assert report["details"]["is_pf"] is False
        assert report["details"]["real_rooted"] is False
        (witness,) = report["witnesses"]
        assert witness["order"] == 4
        assert witness["row_start"] == 1
        assert witness["col_start"] == 0
        assert witness["determinant"] == "-4"

    def test_real_rooted_sequence_passes(self, capsys):
        code, out, _ = run(capsys, "pf", "--coeffs", "1 2 1")
        assert code == EXIT_OK
        (report,) = parse_lines(out)
        assert report["verdict"] == "pass"
        assert report["details"]["is_pf"] is True
        assert report["witnesses"] == []

    def test_negative_coefficient_rejected(self, capsys):
        code, _, err = run(capsys, "pf", "--coeffs", "1,-1")
        assert code == EXIT_USAGE
        assert "nonnegative" in err

    def test_stripped_numerator_witness(self, capsys):
        code, out, _ = run(capsys, "pf", "--n", "10", "--strip-linear=-1")
        assert code == EXIT_MATH_FAIL
        (report,) = parse_lines(out)
        assert report["target"]["stripped_roots"] == ["-1"]
        assert report["details"]["sequence_length"] == 9
        (witness,) = report["witnesses"]
        assert witness["order"] == 26
        assert witness["row_start"] == 3
        assert witness["determinant"] == str(R_WITNESS_DET)

    def test_strip_linear_requires_exact_root(self, capsys):
        code, _, err = run(capsys, "pf", "--coeffs", "1 1", "--strip-linear=-2")
        assert code == EXIT_USAGE
        assert "not a root" in err

    def test_coeffs_from_file(self, capsys, tmp_path):
        source = tmp_path / "seq.txt"
        source.write_text("1 2 1\n")
        code, out, _ = run(capsys, "pf", "--coeffs", str(source))
        assert code == EXIT_OK
        (report,) = parse_lines(out)
        assert report["details"]["is_pf"] is True

    def test_bad_tokens_and_empty(self, capsys):
        code, _, err = run(capsys, "pf", "--coeffs", "1 x 2")
        assert code == EXIT_USAGE
        assert "token 2" in err
        code, _, _ = run(capsys, "pf", "--coeffs", "")
        assert code == EXIT_USAGE

    def test_exactly_one_input(self, capsys):
        code, _, _ = run(capsys, "pf", "--n", "4", "--coeffs", "1 1")
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "pf")
        assert code == EXIT_USAGE


class TestShape:
    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "shape", "--max-n", "12")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "n,unimodal,log_concave,ultra_log_concave,peak_index"
        assert len(lines) == 13
        for n, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            assert fields[0] == str(n)
            assert fields[1:4] == ["1", "1", "1"]
            assert fields[4].isdigit()

    def test_jsonl_format(self, capsys):
        code, out, _ = run(capsys, "shape", "--max-n", "5", "--format", "jsonl")
        assert code == EXIT_OK
        reports = parse_lines(out)
        assert len(reports) == 5
        assert all(r["kind"] == "shape" and r["verdict"] == "pass" for r in reports)

    def test_doctored_coefficient_fails(self, capsys):
        code, out, err = run(capsys, "shape", "--max-n", "12", "--doctor", "5:1:1")
        assert code == EXIT_MATH_FAIL
        lines = out.splitlines()
        assert len(lines) == 6  # header + n = 1..5, aborted at the failure
        assert lines[-1].split(",")[3] == "0"
        assert "n=5" in err

    @pytest.mark.parametrize(
        "doctor, named",
        [("5:99:1", "INDEX=99"), ("5:6:1", "INDEX=6"), ("5:-1:1", "INDEX=-1"),
         ("50:1:1", "N=50"), ("13:1:1", "N=13"), ("0:0:1", "N=0"), ("-3:0:1", "N=-3")],
    )
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_doctor_outside_the_table_is_refused(self, capsys, doctor, named, fmt):
        # a doctored row the table never reaches used to leave every row
        # passing and exit 0
        code, out, err = run(
            capsys, "shape", "--max-n", "12", "--format", fmt, f"--doctor={doctor}"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert named in err

    @pytest.mark.parametrize("doctor", ["1:0:2", "1:1:2", "12:0:0", "12:12:7"])
    def test_doctor_accepts_the_table_edges(self, capsys, doctor):
        code, out, _ = run(capsys, "shape", "--max-n", "12", "--doctor", doctor)
        assert code in (EXIT_OK, EXIT_MATH_FAIL)
        assert out.startswith("n,unimodal")

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_doctor_negative_value_is_refused(self, capsys, fmt):
        # refused before the header, not when row 5 is reached
        code, out, err = run(
            capsys, "shape", "--max-n", "12", "--format", fmt, "--doctor=5:1:-1"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "VALUE=-1" in err

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_rows_are_flushed_as_each_n_finishes(self, capsys, monkeypatch, fmt):
        code, full, _ = run(capsys, "shape", "--max-n", "12", "--format", fmt)
        assert code == EXIT_OK
        # a buffered stdout: only flushed bytes reach `raw`
        raw = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii"))
        real_source = polynomials.q_scaled_coeffs
        written = []

        class Stopped(Exception):
            pass

        def source(n):
            if n == 7:
                written.append(raw.getvalue().decode("ascii"))
                raise Stopped
            return real_source(n)

        monkeypatch.setattr(polynomials, "q_scaled_coeffs", source)
        with pytest.raises(Stopped):
            main(["shape", "--max-n", "12", "--format", fmt])
        def rows(out):
            # timings vary from run to run; everything else must match
            return [
                {**json.loads(line), "timings": None} if line.startswith("{") else line
                for line in out.splitlines()
            ]

        header = 1 if fmt == "csv" else 0
        (out,) = written
        assert rows(out) == rows(full)[: header + 6]  # n = 1..6

    def test_failing_row_is_flushed_before_the_error(self, monkeypatch):
        raw = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii"))
        at_error = []

        class Stderr:
            def write(self, text):
                at_error.append((raw.getvalue().decode("ascii"), text))

        monkeypatch.setattr(sys, "stderr", Stderr())
        assert main(["shape", "--max-n", "12", "--doctor", "5:1:1"]) == EXIT_MATH_FAIL
        (out, err), = at_error
        lines = out.splitlines()
        assert len(lines) == 6  # header + n = 1..5
        assert lines[-1].startswith("5,") and lines[-1].split(",")[3] == "0"
        assert err.startswith("shape failure at n=5:")

    def test_desk_limit(self, capsys):
        code, _, err = run(capsys, "shape", "--max-n", "400")
        assert code == EXIT_USAGE
        assert "--full-1000" in err

    def test_hard_limit(self, capsys):
        code, _, err = run(capsys, "shape", "--max-n", "1001", "--full-1000")
        assert code == EXIT_USAGE
        assert "1000" in err

    def test_empty_range(self, capsys):
        code, out, _ = run(capsys, "shape", "--max-n", "0")
        assert code == EXIT_OK
        assert out.splitlines() == ["n,unimodal,log_concave,ultra_log_concave,peak_index"]

    def test_cold_run_neither_extends_p_nor_shifts(self, capsys, monkeypatch):
        # the rows come from the Q recurrence: no table of n! P_n is built
        # and no Taylor shift runs, even with the Q memo empty
        monkeypatch.setattr(polynomials, "_Q_SCALED", [(1,)])
        calls = []

        def spy(name, fn):
            def counted(*args):
                calls.append(name)
                return fn(*args)
            return counted

        monkeypatch.setattr(
            polynomials, "_ensure_scaled", spy("_ensure_scaled", polynomials._ensure_scaled)
        )
        for name, module in list(sys.modules.items()):
            if name.startswith("darcais") and hasattr(module, "shift_by_one"):
                monkeypatch.setattr(
                    module, "shift_by_one", spy("shift_by_one", module.shift_by_one)
                )
        code, out, _ = run(capsys, "shape", "--max-n", "40")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 41
        assert len(polynomials._Q_SCALED) == 41
        assert calls == []


class TestCache:
    def test_poly_writes_and_reuses_cache(self, capsys, tmp_path):
        path = tmp_path / "records.cache"
        code, first, _ = run(capsys, "poly", "--n", "6", "--cache", str(path))
        assert code == EXIT_OK
        records = cache_mod.read_cache(path)
        assert sorted(records) == [1, 2, 3, 4, 5, 6]
        assert records[6] == darcais_record(6).numer_coeffs

        code, second, _ = run(capsys, "poly", "--n", "6", "--cache", str(path))
        assert code == EXIT_OK
        assert second == first

    def test_smaller_n_does_not_truncate(self, capsys, tmp_path):
        path = tmp_path / "records.cache"
        run(capsys, "poly", "--n", "6", "--cache", str(path))
        run(capsys, "poly", "--n", "3", "--cache", str(path))
        assert sorted(cache_mod.read_cache(path)) == [1, 2, 3, 4, 5, 6]

    def test_corrupt_header(self, capsys, tmp_path):
        path = tmp_path / "bad.cache"
        path.write_text("NOT-A-CACHE\n1: 1\n")
        code, _, err = run(capsys, "poly", "--n", "3", "--cache", str(path))
        assert code == EXIT_USAGE
        assert "cache error" in err and "header" in err

    def test_corrupt_record_is_located(self, capsys, tmp_path):
        path = tmp_path / "bad.cache"
        path.write_text(f"{cache_mod.CACHE_HEADER}\n1: 1\n3: 8 9 1\n")
        code, _, err = run(capsys, "poly", "--n", "3", "--cache", str(path))
        assert code == EXIT_USAGE
        assert f"{path}:3" in err and "out of order" in err

    def test_wrong_values_are_rejected_by_the_memo(self, capsys, tmp_path):
        darcais_record(2)  # make sure the true record is memoized
        path = tmp_path / "lies.cache"
        path.write_text(f"{cache_mod.CACHE_HEADER}\n1: 1\n2: 5 1\n")
        code, _, err = run(capsys, "poly", "--n", "2", "--cache", str(path))
        assert code == EXIT_USAGE
        assert "disagrees" in err

    def test_shape_with_a_cache_prints_the_cold_table(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "records.cache"
        cache_mod.write_cache(path, 60)

        def shape(*cache):
            # both memos start empty, as in a fresh process
            monkeypatch.setattr(polynomials, "_SCALED", [(1,)])
            monkeypatch.setattr(polynomials, "_Q_SCALED", [(1,)])
            code, out, _ = run(capsys, "shape", "--max-n", "60", *cache)
            assert code == EXIT_OK
            return out

        cold = shape()
        assert shape("--cache", str(path)) == cold
        assert len(polynomials._SCALED) == 61  # the records were read and loaded

    @pytest.mark.parametrize(
        "records, message",
        [("1: 1\n2: 0 1\n", "non-positive"), ("1: 1\n3: 8 9 1\n", "out of order")],
    )
    def test_shape_rejects_a_corrupt_cache(self, capsys, tmp_path, records, message):
        path = tmp_path / "bad.cache"
        path.write_text(f"{cache_mod.CACHE_HEADER}\n{records}")
        code, out, err = run(capsys, "shape", "--max-n", "3", "--cache", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert f"{path}:3" in err and message in err

    def test_environment_cache_is_created_and_used(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "env.cache"
        monkeypatch.setenv(cache_mod.CACHE_ENV_VAR, str(path))
        code, _, _ = run(capsys, "poly", "--n", "4")
        assert code == EXIT_OK
        assert sorted(cache_mod.read_cache(path)) == [1, 2, 3, 4]

    def test_missing_environment_cache_is_fine(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cache_mod.CACHE_ENV_VAR, str(tmp_path / "absent.cache"))
        code, out, _ = run(capsys, "verify", "--conjecture", "1", "--max-n", "2")
        assert code == EXIT_OK

    @pytest.mark.parametrize("command", [["roots", "--n", "5"], ["poly", "--n", "5"]])
    def test_cache_in_missing_directory_is_rejected(self, capsys, tmp_path, command):
        path = tmp_path / "absent" / "records.cache"
        code, out, err = run(capsys, *command, "--cache", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert str(path) in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["poly", "--n", "3"], ["shape", "--max-n", "3"]])
    def test_environment_cache_in_missing_directory_is_rejected(
        self, capsys, tmp_path, monkeypatch, command
    ):
        path = tmp_path / "absent" / "records.cache"
        monkeypatch.setenv(cache_mod.CACHE_ENV_VAR, str(path))
        code, out, err = run(capsys, *command)
        assert code == EXIT_USAGE
        assert out == ""
        assert cache_mod.CACHE_ENV_VAR in err and str(path) in err
        assert list(tmp_path.iterdir()) == []

    def test_explicit_cache_overrides_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cache_mod.CACHE_ENV_VAR, str(tmp_path / "absent" / "x.cache"))
        path = tmp_path / "records.cache"
        code, out, _ = run(capsys, "poly", "--n", "3", "--cache", str(path))
        assert code == EXIT_OK
        assert out == "0 4/3 3/2 1/6\n"
        assert sorted(cache_mod.read_cache(path)) == [1, 2, 3]

    def test_missing_cache_file_in_existing_directory_is_fine(self, capsys, tmp_path):
        code, out, _ = run(capsys, "roots", "--n", "5", "--cache", str(tmp_path / "new.cache"))
        assert code == EXIT_OK
        assert parse_lines(out)[0]["verdict"] == "pass"

    def test_failed_write_leaves_old_cache_intact(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "records.cache"
        run(capsys, "poly", "--n", "4", "--cache", str(path))
        before = path.read_bytes()

        real_record = cache_mod.polynomials.darcais_record

        def dies_midway(n):
            if n == 6:
                raise RuntimeError("writer killed")
            return real_record(n)

        monkeypatch.setattr(cache_mod.polynomials, "darcais_record", dies_midway)
        with pytest.raises(RuntimeError, match="writer killed"):
            cache_mod.write_cache(path, 8)
        assert path.read_bytes() == before
        assert sorted(cache_mod.read_cache(path)) == [1, 2, 3, 4]
        assert [f.name for f in tmp_path.iterdir()] == [path.name]


class TestOneSturmChainPerPolynomial:
    """At most one Sturm chain per polynomial; since the root counts moved
    to Descartes bisection, roots and pf build none."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = SturmChain.build

        def counting(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(SturmChain, "build", staticmethod(counting))
        return calls

    @pytest.mark.parametrize(
        "argv",
        [
            ("roots", "--n", "12", "--isolate", "--hurwitz"),
            ("roots", "--poly", "2 -3 2 -2 0 1", "--sturm"),
            ("pf", "--coeffs", "2 2 1"),
            ("pf", "--coeffs", "1 0 2 0 1"),
            ("pf", "--n", "10", "--strip-linear=-1"),
        ],
    )
    def test_cli_builds_one_chain(self, capsys, builds, argv):
        code, out, _ = run(capsys, *argv)
        assert code in (EXIT_OK, EXIT_MATH_FAIL) and out
        assert builds == []

    def test_pf_test_builds_one_chain(self, builds):
        pf_test(ToeplitzSeq((1, 3, 3, 1)))
        pf_test(ToeplitzSeq((1, 1, 1)))
        assert builds == []


class TestSquareFreenessOncePerPolynomial:
    """A roots job asks five questions of one polynomial; the modular
    certificate, and the gcd when the certificate is inconclusive, run
    once for all of them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        rootcert._square_free.cache_clear()
        calls = {"certificate": 0, "gcd": 0}
        certificate, gcd = rootcert._certified_square_free, rootcert.poly_gcd

        def counted_certificate(f):
            calls["certificate"] += 1
            return certificate(f)

        def counted_gcd(a, b):
            calls["gcd"] += 1
            return gcd(a, b)

        monkeypatch.setattr(rootcert, "_certified_square_free", counted_certificate)
        monkeypatch.setattr(rootcert, "poly_gcd", counted_gcd)
        yield calls
        rootcert._square_free.cache_clear()

    def test_one_certificate_for_roots_n66(self, capsys, calls):
        code, out, _ = run(capsys, "roots", "--n", "66", "--hurwitz", "--isolate")
        assert code == EXIT_OK
        assert len(parse_lines(out)[0]["details"]["intervals"]) == 43
        assert calls == {"certificate": 1, "gcd": 0}

    def test_one_gcd_when_the_certificate_is_inconclusive(self, capsys, calls):
        # (x + 1)^2 (x + 2): a double root, so the certificate cannot decide
        code, out, _ = run(capsys, "roots", "--poly", "2 5 4 1", "--hurwitz", "--isolate")
        assert code == EXIT_OK
        details = parse_lines(out)[0]["details"]
        assert details["square_free"] is False and details["real_root_count"] == 2
        assert calls == {"certificate": 1, "gcd": 1}


class TestOutputContract:
    def test_json_lines_have_sorted_keys(self, capsys):
        _, out, _ = run(capsys, "verify", "--conjecture", "corollary", "--max-n", "4")
        for line in out.splitlines():
            parsed = json.loads(line)
            assert line == json.dumps(parsed, sort_keys=True, separators=(",", ":"))

    def test_reports_are_deterministic_modulo_timings(self, capsys):
        def snapshot():
            _, out, _ = run(capsys, "verify", "--conjecture", "corollary", "--max-n", "5")
            stripped = []
            for rep in parse_lines(out):
                rep.pop("timings", None)
                stripped.append(rep)
            return stripped

        assert snapshot() == snapshot()

    def test_stage_timings_are_reported(self, capsys):
        _, out, _ = run(capsys, "roots", "--n", "8", "--isolate", "--hurwitz")
        assert set(parse_lines(out)[0]["timings"]) == {
            "square_free", "count", "isolate", "routh"
        }
        _, out, _ = run(capsys, "pf", "--coeffs", "2 2 1")
        assert set(parse_lines(out)[0]["timings"]) == {
            "real_rootedness", "minor_search", "minors", "minors_by_pivoting"
        }

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == EXIT_OK
        assert out.strip() == "darcais 0.1.0"

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == EXIT_USAGE

    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_USAGE
