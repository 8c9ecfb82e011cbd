import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cslindex
from cslindex import indices, isometry, oracle, spectrum
from cslindex.cli import main
from cslindex.indices import IndexReport
from cslindex.matrices import IntMatrix, format_rat_matrix, mat_mul, parse_int_matrix
from cslindex.normalform import _smith_diagonal_mod
from cslindex.oracle import IntersectionBasis, index_by_counting
from support import det, diagonal_matrix, matrix_tokens, rotation_direct_sum, wrong_xgcd

ID3 = "3 3\n1 0 0\n0 1 0\n0 0 1\n"
ROT = "2 2\n3/5 -4/5\n4/5 3/5\n"
# the reflection along (1, 1, 1)
REF3 = "3 3\n1/3 -2/3 -2/3\n-2/3 1/3 -2/3\n-2/3 -2/3 1/3\n"
ONE = "1 1\n-1\n"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIndex:
    def test_reflect(self, capsys):
        code, out, _ = run(capsys, "index", "--reflect", "1,1,1")
        assert code == 0
        assert out == "sigma=3 method=reflection\n"

    def test_reflect_json(self, capsys):
        code, out, _ = run(capsys, "index", "--reflect", "1,1,1", "--json")
        assert code == 0
        assert json.loads(out) == {"sigma": 3, "method": "reflection", "factors": [3]}

    def test_matrix_all_methods(self, capsys, tmp_path):
        f = tmp_path / "rot.txt"
        f.write_text(ROT)
        code, out, _ = run(capsys, "index", "--matrix", str(f))
        assert code == 0
        assert "sigma=5 method=fortes" in out
        assert "sigma=5 method=closed_form" in out

    def test_one_by_one_isometry(self, capsys, tmp_path):
        # m = floor(1/2) = 0, so delta_0 = 1 and Sigma = 1
        f = tmp_path / "one.txt"
        f.write_text(ONE)
        code, out, _ = run(capsys, "index", "--matrix", str(f))
        assert code == 0
        assert out.splitlines() == [
            "sigma=1 method=fortes factors=[1]",
            "sigma=1 method=closed_form factors=[1, 1]",
        ]

    def test_needs_exactly_one_input(self, capsys):
        code, _, err = run(capsys, "index")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("source", [["--matrix", "{rot}"], ["--reflect", "1,1,1"]])
    def test_method_option_gone(self, capsys, tmp_path, source):
        # --matrix prints every route that reads the Smith diagonal; there is no choice to make
        f = tmp_path / "rot.txt"
        f.write_text(ROT)
        with pytest.raises(SystemExit) as exit_:
            main(["index", *(a.format(rot=f) for a in source), "--method", "all"])
        captured = capsys.readouterr()
        assert exit_.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --method all" in captured.err


class TestVerify:
    def test_identity_agrees(self, capsys, tmp_path):
        f = tmp_path / "id3.txt"
        f.write_text(ID3)
        code, out, _ = run(capsys, "verify", "--matrix", str(f))
        assert code == 0
        assert "verdict agree" in out
        for method in ("fortes 1", "closed_form 1", "oracle_hnf 1", "oracle_count 1"):
            assert method in out

    def test_one_by_one_isometry(self, capsys, tmp_path):
        f = tmp_path / "one.txt"
        f.write_text(ONE)
        code, out, _ = run(capsys, "verify", "--matrix", str(f), "--json")
        assert code == 0
        assert json.loads(out) == {
            "agree": True,
            "methods": {"closed_form": 1, "fortes": 1, "oracle_count": 1, "oracle_hnf": 1},
        }

    def test_routes_print_in_table_order(self, capsys, tmp_path):
        f = tmp_path / "id3.txt"
        f.write_text(ID3)
        code, out, _ = run(capsys, "verify", "--matrix", str(f))
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == [*oracle.ROUTES, "verdict"]

    def test_small_cap_skips_counting(self, capsys, tmp_path):
        f = tmp_path / "rot.txt"
        f.write_text(ROT)
        code, out, _ = run(capsys, "verify", "--matrix", str(f), "--cap", "10")
        assert code == 0
        assert "oracle_count" not in out

    @pytest.mark.parametrize(
        "flag, stdout",
        [
            ([], "fortes 5\nclosed_form 5\noracle_hnf 5\nverdict agree\n"),
            (["--json"], '{"agree": true, "methods": {"closed_form": 5, "fortes": 5, "oracle_hnf": 5}}\n'),
        ],
    )
    def test_skipped_counting_noted_on_stderr(self, capsys, tmp_path, flag, stdout):
        f = tmp_path / "rot.txt"
        f.write_text(ROT)
        code, out, err = run(capsys, "verify", "--matrix", str(f), "--cap", "10", *flag)
        assert code == 0
        assert out == stdout
        assert err == "note: oracle_count skipped: q^n exceeds the cap 10 (n = 2, q has 3 bits)\n"

    def test_no_note_when_counting_runs(self, capsys, tmp_path):
        f = tmp_path / "rot.txt"
        f.write_text(ROT)
        code, out, err = run(capsys, "verify", "--matrix", str(f), "--cap", "25")
        assert code == 0
        assert "oracle_count 5" in out
        assert err == ""

    def test_smith_form_once_per_isometry(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counted(z, modulus):
            calls.append(z)
            return _smith_diagonal_mod(z, modulus)

        monkeypatch.setattr(isometry, "_smith_diagonal_mod", counted)
        f = tmp_path / "rot.txt"
        f.write_text(ROT)
        code, out, _ = run(capsys, "verify", "--matrix", str(f))
        assert code == 0
        assert "fortes 5" in out and "closed_form 5" in out
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["verify", "corpus"])
    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_rejected(self, capsys, tmp_path, command, cap):
        f = tmp_path / "rot.txt"
        f.write_text(ROT)
        if command == "verify":
            args = ["verify", "--matrix", str(f)]
        else:
            args = ["corpus", "--dim", "2", "--count", "3", "--seed", "1"]
        code, out, err = run(capsys, *args, "--cap", cap)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --cap must be a positive integer")

    @pytest.mark.parametrize("command", ["verify", "corpus"])
    @pytest.mark.parametrize("cap", ["abc", "0"])
    def test_bad_cap_is_one_input_error(self, capsys, tmp_path, command, cap):
        # --cap is checked by _cap alone, not by argparse
        f = tmp_path / "rot.txt"
        f.write_text(ROT)
        if command == "verify":
            args = ["verify", "--matrix", str(f)]
        else:
            args = ["corpus", "--dim", "2", "--count", "3", "--seed", "1"]
        code, out, err = run(capsys, *args, "--cap", cap)
        assert code == 2
        assert out == ""
        assert err == f"error: --cap must be a positive integer, got '{cap}'\n"

    def test_not_orthogonal(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("2 2\n1 2\n3 4\n")
        code, _, err = run(capsys, "verify", "--matrix", str(f))
        assert code == 2
        assert "not orthogonal" in err

    @pytest.mark.parametrize(
        "text, product", [("2 2\n2 0\n0 2\n", 4), ("1 1\n5\n", 25), ("2 2\n0 0\n0 0\n", 0)]
    )
    def test_not_orthogonal_in_lowest_terms(self, capsys, tmp_path, text, product):
        # an integer matrix has q = 1, so the gcd of its entries is not what is wrong
        f = tmp_path / "bad.txt"
        f.write_text(text)
        code, out, err = run(capsys, "verify", "--matrix", str(f))
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {f} is not orthogonal: "
            f"columns 0 and 0 have inner product {product}, expected 1\n"
        )

    def test_not_orthogonal_text_bounded(self, capsys, tmp_path):
        # the inner product 10^4000 would print as 4,001 digits; its size is named instead
        f = tmp_path / "huge.txt"
        f.write_text(f"2 2\n1{'0' * 2000} 0\n0 1\n")
        code, out, err = run(capsys, "verify", "--matrix", str(f))
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {f} is not orthogonal: columns 0 and 0 have inner product "
            "g/q^2 (g has 13288 bits, q has 1 bits), expected 1\n"
        )

    @pytest.mark.parametrize("token", ["1e1000000", "1e-1000000", "1e1_000_000"])
    def test_exponent_token_bounded(self, capsys, tmp_path, token):
        # nine characters that stand for a million digits are rejected before any is made
        f = tmp_path / "exp.txt"
        f.write_text(f"2 2\n{token} 0\n0 1\n")
        code, out, err = run(capsys, "verify", "--matrix", str(f))
        assert code == 2
        assert out == ""
        assert err == f"error: {f}: bad rational matrix: exponent beyond 4300 in absolute value\n"

    def test_long_malformed_token_bounded(self, capsys, tmp_path):
        # the text names the token's length instead of echoing its million characters
        f = tmp_path / "long.txt"
        f.write_text(f"2 2\n{'x' * 10**6} 0\n0 1\n")
        code, out, err = run(capsys, "verify", "--matrix", str(f))
        assert code == 2
        assert out == ""
        assert err == f"error: {f}: bad rational matrix: invalid token of 1000000 characters\n"

    def test_malformed_file(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("2 2\n1 2\n")
        code, _, err = run(capsys, "verify", "--matrix", str(f))
        assert code == 2

    def test_unreadable_file(self, capsys, tmp_path):
        f = tmp_path / "missing.txt"
        code, out, err = run(capsys, "verify", "--matrix", str(f))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read {f}: [Errno 2] No such file or directory: '{f}'\n"

    @pytest.mark.parametrize("command", ["verify", "snf", "compose"])
    def test_file_not_utf8_named(self, capsys, tmp_path, command):
        f = tmp_path / "bin.txt"
        f.write_bytes(b"\xff\xfe2 2\n")
        rot = tmp_path / "rot.txt"
        rot.write_text(ROT)
        args = {"verify": ["--matrix", str(f)], "snf": [str(f)], "compose": [str(f), str(rot)]}
        code, out, err = run(capsys, command, *args[command])
        assert code == 2
        assert out == ""
        assert err == (
            f"error: cannot read {f}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )


class TestSnf:
    def test_round_trip(self, capsys, tmp_path):
        f = tmp_path / "z.txt"
        f.write_text("2 2\n3 -4\n4 3\n")
        code, out, _ = run(capsys, "snf", str(f))
        assert code == 0
        assert out.startswith("d 1 25\n")

    def test_json(self, capsys, tmp_path):
        f = tmp_path / "z.txt"
        f.write_text("2 2\n3 -4\n4 3\n")
        code, out, _ = run(capsys, "snf", str(f), "--json")
        payload = json.loads(out)
        assert payload["d"] == [1, 25]
        assert len(payload["p"]) == 2 and len(payload["q"]) == 2

    @pytest.mark.parametrize(
        "rows",
        [
            [[2, 4, 4, 1], [-6, 6, 12, 0], [10, 4, 16, 3]],  # wide
            [[2, 4], [-6, 6], [10, 4], [7, -3]],  # tall
            [[1, 2, 3], [2, 4, 6], [3, 6, 9]],  # rank 1
            [[0, 0, 0], [0, 0, 0]],  # rank 0
        ],
    )
    def test_transforms(self, capsys, tmp_path, rows):
        m, n = len(rows), len(rows[0])
        f = tmp_path / "a.txt"
        f.write_text(f"{m} {n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
        code, out, _ = run(capsys, "snf", str(f), "--json")
        assert code == 0
        payload = json.loads(out)
        p, q, d = (IntMatrix.from_rows(payload["p"]), IntMatrix.from_rows(payload["q"]), payload["d"])
        assert mat_mul(mat_mul(p, IntMatrix.from_rows(rows)), q) == diagonal_matrix(d, m, n)
        assert abs(det(p)) == abs(det(q)) == 1
        # the plain output carries the same numbers: d, then P and Q as matrix text
        code, out, _ = run(capsys, "snf", str(f))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d " + " ".join(map(str, d))
        assert lines[1] == "P" and lines[m + 3] == "Q"
        assert parse_int_matrix("\n".join(lines[2 : m + 3])) == p
        assert parse_int_matrix("\n".join(lines[m + 4 :])) == q

    def test_unreadable_file(self, capsys, tmp_path):
        f = tmp_path / "missing.txt"
        code, out, err = run(capsys, "snf", str(f))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read {f}: [Errno 2] No such file or directory: '{f}'\n"

    def test_bad_token_names_file(self, capsys, tmp_path):
        # snf reads its file through the same reader as index, verify and compose
        f = tmp_path / "bad.txt"
        f.write_text("2 2\n3 x\n4 3\n")
        code, out, err = run(capsys, "snf", str(f))
        assert code == 2
        assert out == ""
        assert err == f"error: {f}: bad integer matrix: invalid literal for int() with base 10: 'x'\n"


class TestReflectCompose:
    def test_reflection_squared_is_identity(self, capsys, tmp_path):
        code, out, _ = run(capsys, "reflect", "--vector", "1,1,1")
        assert code == 0
        f = tmp_path / "r.txt"
        f.write_text(out)
        code, out, _ = run(capsys, "compose", str(f), str(f))
        assert code == 0
        assert out == ID3

    def test_zero_vector(self, capsys):
        code, _, err = run(capsys, "reflect", "--vector", "0,0,0")
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [("reflect", "--vector", "0,0,0"), ("reflect", "--vector", ""), ("index", "--reflect", "0,0")],
    )
    def test_zero_or_empty_vector_message(self, capsys, args):
        code, out, err = run(capsys, *args)
        assert code == 2
        assert out == ""
        assert err == "error: reflection axis must be nonzero\n"

    def test_bad_vector(self, capsys):
        code, out, err = run(capsys, "reflect", "--vector", "a,b")
        assert code == 2
        assert out == ""
        assert err == "error: bad vector 'a,b'; expected comma-separated integers\n"

    @pytest.mark.parametrize(
        "args",
        [("index", "--reflect", "1,,1"), ("reflect", "--vector", ",1,2"), ("reflect", "--vector", "1,2,")],
        ids=["between", "before", "after"],
    )
    def test_empty_vector_field(self, capsys, args):
        # an empty field is not skipped: 1,,1 is not the 2-vector (1, 1)
        code, out, err = run(capsys, *args)
        assert code == 2
        assert out == ""
        assert err == f"error: bad vector {args[2]!r}; expected comma-separated integers\n"

    @pytest.mark.parametrize(
        "args",
        [("index", "--reflect", "1 2"), ("index", "--reflect", "1,2 3"), ("reflect", "--vector", "1 1,1")],
        ids=["no-comma", "second-field", "first-field"],
    )
    def test_space_is_not_a_separator(self, capsys, args):
        # each comma-separated field is one integer: "1 2" is not the 2-vector (1, 2)
        code, out, err = run(capsys, *args)
        assert code == 2
        assert out == ""
        assert err == f"error: bad vector {args[2]!r}; expected comma-separated integers\n"

    def test_spaces_around_fields(self, capsys):
        code, out, _ = run(capsys, "index", "--reflect", " 1 , 1,1 ")
        assert code == 0
        assert out == "sigma=3 method=reflection\n"

    def test_dimension_mismatch_names_files_and_sizes(self, capsys, tmp_path):
        r3, rot = tmp_path / "r3.txt", tmp_path / "rot.txt"
        r3.write_text(REF3)
        rot.write_text(ROT)
        code, out, err = run(capsys, "compose", str(r3), str(rot))
        assert code == 2
        assert out == ""
        assert err == f"error: {r3}, {rot}: dimension mismatch: 3x3 and 2x2\n"


class TestSpectrum:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--dim", "3", "--max", "9")
        assert code == 0
        sigmas = [int(line.split("\t")[0]) for line in out.splitlines()]
        assert sigmas == [1, 3, 5, 7, 9]

    def test_large_dimension_json(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--dim", "400", "--max", "2", "--json")
        assert code == 0
        assert json.loads(out) == {"1": [1] + [0] * 399, "2": [1, 1, 1, 1] + [0] * 396}

    def test_dimension_1500_is_fast(self, capsys):
        # witnesses are verified on their axes' support, not as 1500 x 1500 matrices
        start = time.monotonic()
        code, out, _ = run(capsys, "spectrum", "--dim", "1500", "--max", "2", "--json")
        elapsed = time.monotonic() - start
        assert code == 0
        assert json.loads(out) == {"1": [1] + [0] * 1499, "2": [1, 1, 1, 1] + [0] * 1496}
        assert elapsed < 1.0  # verifying the whole 1500 x 1500 product takes seconds


class TestDecompose:
    def test_odd(self, capsys):
        code, out, _ = run(capsys, "decompose", "--odd", "4711")
        assert code == 0
        assert out.startswith("4711 = ") and "gcd=1" in out

    def test_three_not_representable(self, capsys):
        code, out, _ = run(capsys, "decompose", "--three", "7")
        assert code == 0
        assert "not representable" in out

    def test_rejects_even(self, capsys):
        code, _, err = run(capsys, "decompose", "--odd", "8")
        assert code == 2

    def test_three_plain(self, capsys):
        code, out, err = run(capsys, "decompose", "--three", "29")
        assert code == 0
        assert out == "29 = 5^2 + 2^2 + 0^2\n"
        assert err == ""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--odd", "8", "expected an odd positive integer"),
            ("--odd", "-3", "expected an odd positive integer"),
            ("--three", "0", "expected a positive integer"),
        ],
    )
    def test_out_of_range_message(self, capsys, flag, value, message):
        code, out, err = run(capsys, "decompose", flag, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_needs_a_flag(self, capsys):
        code, out, err = run(capsys, "decompose")
        assert code == 2
        assert out == ""
        assert err == "error: decompose needs exactly one of --odd or --three\n"


class TestCorpus:
    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, "corpus", "--dim", "3", "--count", "10", "--seed", "7")
        code2, out2, _ = run(capsys, "corpus", "--dim", "3", "--count", "10", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 10
        assert all(line.endswith("agree=yes") for line in out1.splitlines())

    def test_json_mirrors_plain(self, capsys):
        _, plain, _ = run(capsys, "corpus", "--dim", "2", "--count", "5", "--seed", "3")
        _, raw, _ = run(capsys, "corpus", "--dim", "2", "--count", "5", "--seed", "3", "--json")
        records = json.loads(raw)
        assert [f"q={r['q']} sigma={r['sigma']} agree=yes" for r in records] == plain.splitlines()

    def test_skipped_counting_not_noted(self, capsys):
        # a corpus keeps stderr quiet; only verify names the skipped oracle
        code, _, err = run(capsys, "corpus", "--dim", "3", "--count", "5", "--seed", "7", "--cap", "1")
        assert code == 0
        assert err == ""

    @pytest.mark.parametrize("flag, value", [("--count", "-1"), ("--reflections", "-2")])
    def test_negative_size_rejected(self, capsys, flag, value):
        args = {"--count": "3", "--reflections": "3"}
        args[flag] = value
        code, out, err = run(
            capsys, "corpus", "--dim", "3", "--seed", "1", *(x for kv in args.items() for x in kv)
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be a nonnegative integer, got {value}\n"

    def test_bound_below_one_named(self, capsys):
        code, out, err = run(capsys, "corpus", "--dim", "3", "--count", "2", "--seed", "1", "--bound", "0")
        assert code == 2
        assert out == ""
        assert err == "error: coordinate bound must be >= 1, got 0\n"

    @pytest.mark.parametrize("dim, bound", [("1", "0"), ("3", "0"), ("1", "4")])
    def test_empty_corpus_checks_its_flags(self, capsys, dim, bound):
        # an empty corpus rejects the flags that a nonempty one rejects, with the same message
        flags = ["--dim", dim, "--seed", "1", "--bound", bound]
        empty = run(capsys, "corpus", "--count", "0", *flags)
        one = run(capsys, "corpus", "--count", "1", *flags)
        assert empty == one
        assert empty[:2] == (2, "")


class TestLargeSigma:
    """Sigma past Python's default limit of 4,300 digits for int to str prints exactly."""

    @pytest.fixture
    def big(self, tmp_path):
        text, c = rotation_direct_sum(15)
        f = tmp_path / "big.txt"
        f.write_text(text)
        return str(f), str(Decimal(c**15))  # Decimal, unlike str on an int, has no digit limit

    def test_index(self, capsys, big):
        path, sigma = big
        code, out, err = run(capsys, "index", "--matrix", path)
        assert (code, err) == (0, "")
        assert [line.split()[:2] for line in out.splitlines()] == [
            [f"sigma={sigma}", "method=fortes"],
            [f"sigma={sigma}", "method=closed_form"],
        ]

    def test_index_json(self, capsys, big):
        path, sigma = big
        code, out, err = run(capsys, "index", "--matrix", path, "--json")
        assert (code, err) == (0, "")
        assert out.startswith('{"closed_form": {"factors": [')
        assert out.count(f'"sigma": {sigma}}}') == 2

    @pytest.mark.parametrize(
        "flag, stdout",
        [
            ([], "fortes {s}\nclosed_form {s}\noracle_hnf {s}\nverdict agree\n"),
            (["--json"], '{{"agree": true, "methods": {{"closed_form": {s}, "fortes": {s}, "oracle_hnf": {s}}}}}\n'),
        ],
        ids=["plain", "json"],
    )
    def test_verify(self, capsys, big, flag, stdout):
        path, sigma = big
        code, out, err = run(capsys, "verify", "--matrix", path, *flag)
        assert code == 0
        assert out == stdout.format(s=sigma)
        assert err == "note: oracle_count skipped: q^n exceeds the cap 10000000 (n = 30, q has 997 bits)\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit before 3.10.7")
    def test_limit_restored_after_main(self, capsys, big):
        before = sys.get_int_max_str_digits()
        run(capsys, "index", "--matrix", big[0])
        assert sys.get_int_max_str_digits() == before

    def test_corpus_past_the_limit(self, capsys):
        # q^48 has 4,826 digits here
        code, out, err = run(
            capsys, "corpus", "--dim", "48", "--count", "1", "--seed", "3", "--reflections", "48", "--bound", "8"
        )
        assert (code, err) == (0, "")
        assert out.startswith("q=") and out.endswith(" agree=yes\n")


class TestOutputDependsOnlyOnArguments:
    @pytest.mark.parametrize("value", ["1", "zero"])
    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "--matrix", "{rot}"),
            ("verify", "--matrix", "{rot}", "--json"),
            ("corpus", "--dim", "3", "--count", "20", "--seed", "7", "--json"),
        ],
        ids=["verify", "verify-json", "corpus-json"],
    )
    def test_cap_variable_not_read(self, capsys, tmp_path, monkeypatch, value, args):
        # CSLINDEX_CAP once duplicated --cap; the cap now comes from --cap alone,
        # so the same flags print the same output and run the counting oracle as often
        counted = []

        def counting(y, cap):
            report = index_by_counting(y, cap)
            counted.append(report)
            return report

        def outcome():
            counted.clear()
            return run(capsys, *argv), len(counted)

        monkeypatch.setattr(oracle, "index_by_counting", counting)
        f = tmp_path / "rot.txt"
        f.write_text(ROT)
        argv = [a.format(rot=f) for a in args]
        monkeypatch.delenv("CSLINDEX_CAP", raising=False)
        unset = outcome()
        monkeypatch.setenv("CSLINDEX_CAP", value)
        assert outcome() == unset
        assert unset[0][0] == 0 and unset[1] > 0


def test_closed_pipe_exits_141_quietly():
    # two lines of 120 kB each, well past a 64 KiB pipe buffer: closing the pipe
    # after the first leaves the second unwritten
    env = dict(os.environ, PYTHONPATH=str(os.path.dirname(os.path.dirname(cslindex.__file__))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cslindex.cli", "spectrum", "--dim", "60000", "--max", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"1\t1" + b",0" * 59999 + b"\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


class TestCrossCheckFailure:
    @pytest.mark.parametrize(
        "args, verdict",
        [
            (["verify", "--matrix", "{rot}"], "verdict DISAGREE"),
            (["corpus", "--dim", "3", "--count", "2", "--seed", "7"], "agree=no"),
        ],
        ids=["verify", "corpus"],
    )
    def test_route_disagreement_exits_one(self, capsys, tmp_path, monkeypatch, args, verdict):
        # the routes are looked up when they run, so a patched oracle is what verify and corpus see
        hnf = oracle.index_by_hnf

        def off_by_one(y):
            report = hnf(y)
            return IndexReport(report.sigma + 1, report.method, report.factors)

        monkeypatch.setattr(oracle, "index_by_hnf", off_by_one)
        f = tmp_path / "rot.txt"
        f.write_text(ROT)
        code, out, err = run(capsys, *(a.format(rot=f) for a in args))
        assert code == 1
        assert out.splitlines()[-1].endswith(verdict)
        assert err == ""

    def test_closed_form_mismatch_exits_one(self, capsys, tmp_path, monkeypatch):
        # even n takes delta_m from the row blocks that hold row 0
        monkeypatch.setattr(indices, "_row_blocks_minors_gcd", lambda z, m, holding_row_0: 0)
        f = tmp_path / "rot.txt"
        f.write_text(ROT)
        code, out, err = run(capsys, "index", "--matrix", str(f))
        assert code == 1
        assert err == (
            "error: invariant-factor product disagrees with the gcd of the 1x1 minors "
            "from column steps shared across row blocks: 1 against 0\n"
        )

    def test_closed_form_mismatch_exits_one_odd_n(self, capsys, tmp_path, monkeypatch):
        # odd n takes delta_m from every row block, through the same call
        monkeypatch.setattr(indices, "_row_blocks_minors_gcd", lambda z, m, holding_row_0: 0)
        f = tmp_path / "ref3.txt"
        f.write_text(REF3)
        code, out, err = run(capsys, "index", "--matrix", str(f))
        assert code == 1
        assert out == ""
        assert err.startswith("error: invariant-factor product disagrees")
        assert "Traceback" not in err

    def test_three_square_search_disagreeing_with_the_form_test_exits_one(self, capsys, monkeypatch):
        # a search that finds nothing for 13, which the 4^a(8k+7) test allows
        monkeypatch.setattr(spectrum, "vectors_with_norm", lambda n, norm: iter(()))
        code, out, err = run(capsys, "decompose", "--three", "13")
        assert code == 1
        assert out == ""
        assert err == "error: search found no representation of 13 but the form test allows one\n"

    def test_witness_mismatch_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(spectrum, "intersection_hnf", lambda y: IntersectionBasis(IntMatrix(1, 1, (0,))))
        code, out, err = run(capsys, "spectrum", "--dim", "3", "--max", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: witness verification failed")

    def test_hnf_oracle_division_exits_one(self, capsys, tmp_path, monkeypatch):
        # an _xgcd with a doubled Bezout coefficient gives the oracle a pivot that does not divide q
        monkeypatch.setattr(oracle, "_xgcd", wrong_xgcd(s_factor=2))
        f = tmp_path / "rot.txt"
        f.write_text(ROT)
        code, out, err = run(capsys, "verify", "--matrix", str(f))
        assert code == 1
        assert out == ""
        assert err == "error: HNF oracle: the pivot of column 1 does not divide q\n"

    def test_diagonal_tail_not_q_exits_one(self, capsys, tmp_path, monkeypatch):
        # past the middle, every entry of the Smith diagonal mod q must be q
        monkeypatch.setattr(isometry, "_smith_diagonal_mod", lambda z, modulus: (1,) * z.rows)
        f = tmp_path / "rot.txt"
        f.write_text(ROT)
        code, out, err = run(capsys, "verify", "--matrix", str(f))
        assert code == 1
        assert out == ""
        assert err.startswith("error: Smith diagonal mod q = 5 has 1 at position 2")
        assert "Traceback" not in err


# --- main in process on argv drawn from the parser's grammar ------------------

FUZZ_SECONDS = 5  # per call; each call here takes milliseconds


class Hang(Exception):
    """Raised by the alarm; main catches none of its bases."""


def _small_int(lo, hi):
    """An integer flag value in [lo, hi], or, one time in four, text that is not one."""
    value = st.integers(lo, hi).map(str)
    return st.one_of(value, value, value, st.sampled_from(["", "x", "1.5", "1e3", "0x10", "٣", " 3"]))


def _vector():
    """An axis flag value: comma-separated integers, or other text."""
    return st.one_of(
        st.lists(st.integers(-5, 5), max_size=5).map(lambda v: ",".join(map(str, v))),
        st.text("0123456789-, x", max_size=8),
    )


@st.composite
def _matrix_text(draw):
    """Bytes of a matrix file: random bytes, random tokens, or an isometry."""
    kind = draw(st.sampled_from(["bytes", "tokens", "isometry"]))
    if kind == "bytes":
        return draw(st.binary(max_size=60))
    if kind == "isometry":
        n = draw(st.integers(2, 4))
        axes = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=3))
        axes = [v for v in axes if any(v)] or [[1] * n]
        y = isometry.compose(*(isometry.reflection(v) for v in axes))
        return format_rat_matrix(y.as_rational()).encode()
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    body = draw(
        st.lists(st.lists(matrix_tokens(), min_size=cols, max_size=cols), min_size=rows, max_size=rows + 1)
    )
    return (f"{rows} {cols}\n" + "".join(" ".join(row) + "\n" for row in body)).encode()


@st.composite
def _argv(draw, files):
    """argv for one subcommand with small or malformed values: a required option is left
    out one time in ten, any other one time in two.  files[0] and files[1] hold drawn
    matrix texts, the other paths name a directory or nothing."""
    path = st.sampled_from(files)
    command = draw(st.sampled_from(["index", "snf", "reflect", "compose", "verify", "corpus", "spectrum", "decompose", "--version"]))
    # what argparse requires
    required = {"reflect --vector", "verify --matrix", "corpus --dim", "corpus --count", "corpus --seed"}
    required |= {"spectrum --dim", "spectrum --max"}
    # one --three in four is 8k + 7 up to 10^12, a target with no three-square form
    three = st.one_of(*[_small_int(-3, 10**4)] * 3, st.integers(0, (10**12 - 7) // 8).map(lambda k: str(8 * k + 7)))
    options = {
        "index": [("--matrix", path), ("--reflect", _vector())],
        "reflect": [("--vector", _vector())],
        "verify": [("--matrix", path), ("--cap", _small_int(-1, 10**4))],
        "corpus": [
            ("--dim", _small_int(-1, 6)),
            ("--count", _small_int(-1, 5)),
            ("--seed", _small_int(-5, 10**6)),
            ("--reflections", _small_int(-1, 6)),
            ("--bound", _small_int(-1, 8)),
            ("--cap", _small_int(-1, 10**4)),
        ],
        "spectrum": [("--dim", _small_int(-1, 6)), ("--max", _small_int(-1, 60))],
        "decompose": [("--odd", _small_int(-3, 10**4)), ("--three", three)],
    }
    positional = {"snf": 1, "compose": 2}
    argv = [command]
    for _ in range(positional.get(command, 0)):
        argv.append(draw(path))
    for flag, value in options.get(command, []):
        if draw(st.integers(0, 9)) >= (1 if f"{command} {flag}" in required else 5):
            argv += [flag, draw(value)]
    if command != "--version" and draw(st.booleans()):
        argv.append("--json")
    return argv


@pytest.fixture(scope="class")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestMainFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), texts=st.tuples(_matrix_text(), _matrix_text()))
    def test_exits_0_1_or_2_without_traceback(self, fuzz_dir, data, texts):
        files = [fuzz_dir / "a.txt", fuzz_dir / "b.txt"]
        for f, text in zip(files, texts):
            f.write_bytes(text)
        argv = data.draw(_argv([str(f) for f in files] + [str(fuzz_dir), str(fuzz_dir / "missing.txt")]))

        def hang(signum, frame):
            raise Hang(f"main({argv}) ran past {FUZZ_SECONDS} s")

        before = signal.signal(signal.SIGALRM, hang)
        signal.alarm(FUZZ_SECONDS)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse: usage errors and --version
                    code = exc.code
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, before)
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
