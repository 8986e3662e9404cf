"""End-to-end command-line tests driven through cli.run()."""

import argparse
import io

import pytest

import grids
from latinsq import (LatinSquare, cli, cyclic_square, format_lsq, parse_lsq,
                     random_square)

CYC3_TEXT = format_lsq(cyclic_square(3))
QC4_TEXT = format_lsq(LatinSquare(grids.QC_BASE4))


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, text, name="square.lsq"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def blocks(out):
    return out.strip().split("\n\n")


class TestVerify:
    def test_valid_square(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "verify", write(tmp_path, CYC3_TEXT))
        assert (code, out, err) == (0, "ok\n", "")

    def test_invalid_square(self, capsys, tmp_path):
        path = write(tmp_path, "2\n1 2\n1 2\n")
        code, out, _ = run_cli(capsys, "verify", path)
        assert code == 1
        assert "column 1 duplicates symbol 1" in out
        assert "column 2 duplicates symbol 2" in out
        code, out, _ = run_cli(capsys, "verify", write(tmp_path, "2\n1 1\n2 5\n"))
        assert (code, out) == (1, "row 2: symbol 5 out of range for order 2\n"
                                  "row 1 duplicates symbol 1\n")

    def test_partial_square_fails(self, capsys, tmp_path):
        path = write(tmp_path, "2\n1 .\n. 1\n")
        code, out, _ = run_cli(capsys, "verify", path)
        assert code == 1
        assert "2 empty cells" in out

    def test_syntax_error(self, capsys, tmp_path):
        path = write(tmp_path, "2\n1 2\n")
        code, _, err = run_cli(capsys, "verify", path)
        assert code == 2
        assert err.startswith("error: line")

    def test_only_ascii_integer_tokens(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "verify", write(tmp_path, "2\n0 -1\n2 1\n"))
        assert code == 1
        assert "symbol 0 out of range" in out and "symbol -1 out of range" in out
        code, _, err = run_cli(capsys, "verify", write(tmp_path, "2\n+1 2\n2 1\n"))
        assert (code, err) == (2, "error: line 2: bad token '+1'\n")
        huge = "1" * 5000
        for text, lineno in ((f"{huge}\n1 2\n2 1\n", 1), (f"2\n1 2\n2 {huge}\n", 3)):
            code, out, err = run_cli(capsys, "verify", write(tmp_path, text))
            assert (code, out) == (2, "")
            assert err == f"error: line {lineno}: bad token {huge!r}\n"

    def test_undecodable_byte_is_a_bad_token(self, capsys, tmp_path):
        path = tmp_path / "square.lsq"
        path.write_bytes(b"3\n1 2 3\n2 3 \xff\n3 1 2\n")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 3: bad token")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "/nonexistent.lsq")
        assert code == 2
        assert err.startswith("error:")

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(CYC3_TEXT))
        assert run_cli(capsys, "verify", "-")[0] == 0


class TestGen:
    def test_emits_valid_square(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--order", "5")
        assert code == 0
        assert parse_lsq(out).order == 5

    def test_deterministic_per_seed(self, capsys):
        first = run_cli(capsys, "gen", "--order", "6", "--seed", "1")[1]
        again = run_cli(capsys, "gen", "--order", "6", "--seed", "1")[1]
        other = run_cli(capsys, "gen", "--order", "6", "--seed", "2")[1]
        assert first == again
        assert first != other

    def test_pipes_back_into_verify(self, capsys, monkeypatch):
        out = run_cli(capsys, "gen", "--order", "7", "--seed", "3")[1]
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out, _ = run_cli(capsys, "verify", "-")
        assert (code, out) == (0, "ok\n")

    def test_bad_order(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--order", "0")
        assert code == 2
        assert err.startswith("error:")


class TestComplete:
    def test_unique_completion(self, capsys, tmp_path):
        path = write(tmp_path, "3\n1 2 3\n2 3 .\n3 1 2\n")
        code, out, _ = run_cli(capsys, "complete", path)
        assert code == 0
        assert out == CYC3_TEXT

    def test_all_completions(self, capsys, tmp_path):
        path = write(tmp_path, "2\n. .\n. .\n")
        code, out, _ = run_cli(capsys, "complete", path, "--all")
        assert code == 0
        assert sorted(blocks(out)) == ["2\n1 2\n2 1", "2\n2 1\n1 2"]

    def test_limit_zero_means_unlimited(self, capsys, tmp_path):
        path = write(tmp_path, "2\n. .\n. .\n")
        out = run_cli(capsys, "complete", path, "--limit", "0")[1]
        assert len(blocks(out)) == 2

    def test_unsolvable(self, capsys, tmp_path):
        path = write(tmp_path, "2\n1 .\n. 2\n")
        code, _, err = run_cli(capsys, "complete", path)
        assert code == 3
        assert "no completion exists" in err

    def test_full_square_round_trips(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        assert run_cli(capsys, "complete", path)[1] == CYC3_TEXT

    def test_all_conflicts_with_limit(self, capsys, tmp_path):
        path = write(tmp_path, "2\n. .\n. .\n")
        code = run_cli(capsys, "complete", path, "--all", "--limit", "2")[0]
        assert code == 2


class TestEnumeration:
    def test_transversal_count(self, capsys, tmp_path):
        for n, want in ((4, "0\n"), (9, "2025\n")):
            path = write(tmp_path, format_lsq(cyclic_square(n)))
            code, out, _ = run_cli(capsys, "transversals", path, "--count")
            assert (code, out) == (0, want)

    def test_count_is_default_mode(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        assert run_cli(capsys, "transversals", path)[1] == "3\n"

    def test_transversal_list(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        out = run_cli(capsys, "transversals", path, "--list")[1]
        assert out == "1 2 3\n2 3 1\n3 1 2\n"

    def test_list_truncation_marker(self, capsys, tmp_path):
        path = write(tmp_path, format_lsq(cyclic_square(5)))
        out = run_cli(capsys, "transversals", path, "--list", "--limit", "2")[1]
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[-1] == "# truncated at 2"

    def test_disjoint_family_count(self, capsys, tmp_path):
        path = write(tmp_path, format_lsq(cyclic_square(5)))
        out = run_cli(capsys, "transversals", path, "--disjoint", "2", "--count")[1]
        assert out == "30\n"

    def test_disjoint_family_list(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        out = run_cli(capsys, "transversals", path, "--disjoint", "3", "--list")[1]
        assert out == "1 2 3 ; 2 3 1 ; 3 1 2\n"

    def test_qcmapping_count(self, capsys, tmp_path):
        path = write(tmp_path, QC4_TEXT)
        assert run_cli(capsys, "qcmappings", path, "--count")[1] == "16\n"

    def test_qcmapping_list_contains_reference(self, capsys, tmp_path):
        path = write(tmp_path, QC4_TEXT)
        out = run_cli(capsys, "qcmappings", path, "--list")[1]
        assert "1 3 2 4" in out.splitlines()

    def test_empty_enumeration_is_success(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        code, out, _ = run_cli(capsys, "qcmappings", path, "--list")
        assert (code, out) == (0, "")

    def test_partial_square_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "2\n1 .\n. 1\n")
        code, _, err = run_cli(capsys, "transversals", path)
        assert code == 2
        assert "complete square is required" in err


COUNT_SQUARES = {"cyclic5": cyclic_square(5), "cyclic7": cyclic_square(7),
                 "random6": random_square(6, 1)}
COUNT_BYTES = {  # square: {--disjoint K or None for qcmappings: (code, out, err)}
    "cyclic5": {"0": (2, "", "error: family size must be in 1..5, got 0\n"),
                "1": (0, "15\n", ""), "2": (0, "30\n", ""), "3": (0, "30\n", ""),
                "5": (0, "3\n", ""),
                "6": (2, "", "error: family size must be in 1..5, got 6\n"),
                None: (0, "0\n", "")},
    "cyclic7": {"0": (2, "", "error: family size must be in 1..7, got 0\n"),
                "1": (0, "133\n", ""), "2": (0, "3780\n", ""),
                "3": (0, "27958\n", ""), "7": (0, "635\n", ""),
                "8": (2, "", "error: family size must be in 1..7, got 8\n"),
                None: (0, "0\n", "")},
    "random6": {"0": (2, "", "error: family size must be in 1..6, got 0\n"),
                "1": (0, "8\n", ""), "2": (0, "4\n", ""), "3": (0, "0\n", ""),
                "6": (0, "0\n", ""),
                "7": (2, "", "error: family size must be in 1..6, got 7\n"),
                None: (0, "130\n", "")},
}


@pytest.mark.parametrize("name, k", [
    (name, k) for name, cases in COUNT_BYTES.items() for k in cases])
def test_count_bytes_frozen(capsys, monkeypatch, name, k):
    monkeypatch.setattr("sys.stdin", io.StringIO(format_lsq(COUNT_SQUARES[name])))
    argv = (["qcmappings", "-", "--count"] if k is None
            else ["transversals", "-", "--disjoint", k, "--count"])
    assert run_cli(capsys, *argv) == COUNT_BYTES[name][k]


@pytest.mark.parametrize("k", ["2.5", "x"])
def test_disjoint_count_rejects_non_integer(capsys, monkeypatch, k):
    monkeypatch.setattr("sys.stdin", io.StringIO(format_lsq(cyclic_square(5))))
    code, out, err = run_cli(capsys, "transversals", "-", "--disjoint", k, "--count")
    assert (code, out) == (2, "")
    assert err.startswith("usage: latinsq transversals [-h] [--count | --list]")
    assert err.endswith("latinsq transversals: error: argument --disjoint: "
                        f"invalid int value: {k!r}\n")


class TestProlong:
    def test_bruck(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        code, out, _ = run_cli(capsys, "prolong", path, "--method", "bruck",
                               "--transversal", "3 1 2")
        assert code == 0
        assert out == format_lsq(grids.BRUCK_OUT4)

    def test_bruck_requires_transversal(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        code, _, err = run_cli(capsys, "prolong", path, "--method", "bruck")
        assert code == 2
        assert "--transversal" in err

    def test_inapplicable_flag_rejected(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        code, _, err = run_cli(capsys, "prolong", path, "--method", "bruck",
                               "--transversal", "3 1 2", "--sigma", "1 2 3")
        assert code == 2
        assert "--sigma does not apply" in err

    def test_non_transversal_rejected(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        code, _, err = run_cli(capsys, "prolong", path, "--method", "bruck",
                               "--transversal", "1 1 1")
        assert code == 2
        assert err.startswith("error:")

    def test_disjoint_with_bottom_file(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        bottom = write(tmp_path, "2\n2 1\n1 2\n", name="bottom.lsq")
        out = run_cli(capsys, "prolong", path, "--method", "disjoint",
                      "--transversal", "1 2 3", "--transversal", "2 3 1",
                      "--bottom", bottom)[1]
        assert out == format_lsq(grids.DISJ_OUT5)

    def test_disjoint_three_transversals(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        out = run_cli(capsys, "prolong", path, "--method", "disjoint",
                      "--transversal", "1 2 3", "--transversal", "2 3 1",
                      "--transversal", "3 1 2", "--fill", "6 5 4")[1]
        assert out == format_lsq(grids.DISJ_OUT6)

    def test_belyavskaya(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        out = run_cli(capsys, "prolong", path, "--method", "belyavskaya",
                      "--transversal", "3 1 2", "--except", "2")[1]
        assert out == format_lsq(grids.BEL_OUT4)

    def test_gen_belyavskaya(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        out = run_cli(capsys, "prolong", path, "--method", "gen-belyavskaya",
                      "--transversal", "1 2 3", "--transversal", "2 3 1",
                      "--except", "1", "--except", "2", "--fill", "5 4")[1]
        assert out == format_lsq(grids.GENBEL_OUT5)

    def test_gen_belyavskaya_all_completions(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        out = run_cli(capsys, "prolong", path, "--method", "gen-belyavskaya",
                      "--transversal", "1 2 3", "--transversal", "2 3 1",
                      "--transversal", "3 1 2", "--except", "2", "--except", "3",
                      "--except", "3", "--limit", "0")[1]
        found = blocks(out)
        assert len(found) == 2
        assert format_lsq(grids.GENBEL_OUT6).strip() in found

    def test_gen_belyavskaya_infeasible(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        code, _, err = run_cli(capsys, "prolong", path,
                               "--method", "gen-belyavskaya",
                               "--transversal", "1 2 3", "--transversal", "2 3 1",
                               "--except", "1", "--except", "1")
        assert code == 3
        assert "no completion exists" in err

    def test_dd(self, capsys, tmp_path):
        path = write(tmp_path, QC4_TEXT)
        out = run_cli(capsys, "prolong", path, "--method", "dd",
                      "--sigma", "1 3 2 4", "--keep", "4")[1]
        assert out == format_lsq(grids.DD_OUT5)
        default = run_cli(capsys, "prolong", path, "--method", "dd",
                          "--sigma", "1 3 2 4")[1]
        assert default == out

    def test_gen_dd(self, capsys, tmp_path):
        path = write(tmp_path, QC4_TEXT)
        out = run_cli(capsys, "prolong", path, "--method", "gen-dd",
                      "--sigma", "1 3 2 4", "--sigma", "2 1 4 3",
                      "--keep", "4", "--keep", "4")[1]
        assert out == format_lsq(grids.GENDD_OUT6)

    def test_gen_dd_unseeded_diagonal(self, capsys, tmp_path):
        path = write(tmp_path, QC4_TEXT)
        out = run_cli(capsys, "prolong", path, "--method", "gen-dd",
                      "--sigma", "1 3 2 4", "--sigma", "2 1 4 3",
                      "--keep", "4", "--keep", "4",
                      "--no-diag-seed", "--limit", "0")[1]
        assert format_lsq(grids.GENDD_OUT6).strip() in blocks(out)

    def test_no_diag_seed_limited_to_gen_dd(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        code, _, err = run_cli(capsys, "prolong", path, "--method", "bruck",
                               "--transversal", "3 1 2", "--no-diag-seed")
        assert code == 2
        assert "gen-dd" in err

    # The methods that take each prolong flag, in --method choice order.
    TAKERS = {
        "--transversal": "bruck, disjoint, belyavskaya, gen-belyavskaya",
        "--sigma": "dd, gen-dd",
        "--except": "belyavskaya, gen-belyavskaya, two-step",
        "--keep": "dd, gen-dd, two-step",
        "--fill": "disjoint, gen-belyavskaya, gen-dd",
        "--cols": "disjoint, gen-belyavskaya, gen-dd",
        "--rows": "disjoint, gen-belyavskaya, gen-dd",
        "--bottom": "disjoint",
        "--t1": "two-step",
        "--t2": "two-step",
        "--first": "two-step",
        "--limit": "gen-belyavskaya, gen-dd",
        "--no-diag-seed": "gen-dd",
    }

    # Each case ends with the one flag its method does not take.
    IGNORED = [
        ("--method", "bruck", "--transversal", "3 1 2", "--limit", "7"),
        ("--method", "bruck", "--transversal", "3 1 2", "--first", "belyavskaya"),
        ("--method", "disjoint", "--transversal", "3 1 2", "--limit", "0"),
        ("--method", "gen-belyavskaya", "--transversal", "1 2 3", "--except", "1",
         "--no-diag-seed"),
        ("--method", "dd", "--sigma", "1 2 3", "--transversal", "3 1 2"),
        ("--method", "bruck", "--transversal", "3 1 2", "--sigma", "1 2 3"),
        ("--method", "disjoint", "--transversal", "3 1 2", "--except", "1"),
        ("--method", "bruck", "--transversal", "3 1 2", "--keep", "1"),
        ("--method", "belyavskaya", "--transversal", "3 1 2", "--except", "1",
         "--fill", "4"),
        ("--method", "bruck", "--transversal", "3 1 2", "--cols", "1"),
        ("--method", "dd", "--sigma", "1 2 3", "--rows", "1"),
        ("--method", "gen-belyavskaya", "--transversal", "1 2 3", "--except", "1",
         "--bottom", "bottom.lsq"),
        ("--method", "bruck", "--transversal", "3 1 2", "--t1", "3 1 2"),
        ("--method", "dd", "--sigma", "1 2 3", "--t2", "1 2 3"),
        ("--method", "gen-dd", "--sigma", "1 2 3", "--first", "bruck"),
        ("--method", "two-step", "--t1", "3 1 2", "--t2", "1 2 3",
         "--no-diag-seed"),
    ]

    @pytest.mark.parametrize("argv", IGNORED)
    def test_ignored_flags_rejected(self, capsys, tmp_path, argv):
        path = write(tmp_path, CYC3_TEXT)
        code, out, err = run_cli(capsys, "prolong", path, *argv)
        flag = [a for a in argv if a.startswith("--")][-1]
        method = argv[argv.index("--method") + 1]
        assert (code, out) == (2, "")
        assert err == (f"error: {flag} does not apply to --method {method} "
                       f"(only to {self.TAKERS[flag]})\n")

    @pytest.mark.parametrize("flags", [("--keep", "2"),
                                       ("--first", "bruck", "--keep", "2"),
                                       ("--first", "bruck", "--except", "2")])
    def test_two_step_bruck_first_rejects_except_and_keep(self, capsys, tmp_path,
                                                          flags):
        path = write(tmp_path, CYC3_TEXT)
        code, out, err = run_cli(capsys, "prolong", path, "--method", "two-step",
                                 "--t1", "3 1 2", "--t2", "1 2 3", *flags)
        assert (code, out) == (2, "")
        assert "--first belyavskaya" in err

    def test_two_step_belyavskaya_first(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        out = run_cli(capsys, "prolong", path, "--method", "two-step",
                      "--t1", "3 1 2", "--t2", "1 2 3",
                      "--first", "belyavskaya", "--except", "2")[1]
        assert out == format_lsq(grids.TWOSTEP_OUT5)

    def test_two_step_bruck_first(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        code, out, _ = run_cli(capsys, "prolong", path, "--method", "two-step",
                               "--t1", "3 1 2", "--t2", "1 2 3")
        assert code == 0
        assert parse_lsq(out).rows == ((5, 2, 4, 3, 1), (4, 5, 1, 2, 3),
                                       (3, 4, 5, 1, 2), (2, 1, 3, 5, 4),
                                       (1, 3, 2, 4, 5))

    def test_two_step_except_needs_belyavskaya_first(self, capsys, tmp_path):
        path = write(tmp_path, CYC3_TEXT)
        code, _, err = run_cli(capsys, "prolong", path, "--method", "two-step",
                               "--t1", "3 1 2", "--t2", "1 2 3", "--except", "2")
        assert code == 2
        assert "--first belyavskaya" in err

    def test_every_emitted_grid_verifies(self, capsys, tmp_path, monkeypatch):
        path = write(tmp_path, CYC3_TEXT)
        out = run_cli(capsys, "prolong", path, "--method", "two-step",
                      "--t1", "3 1 2", "--t2", "2 3 1")[1]
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        assert run_cli(capsys, "verify", "-")[0] == 0


class TestContract:
    def test_bruck(self, capsys, tmp_path):
        path = write(tmp_path, format_lsq(grids.BRUCK_OUT4))
        code, out, _ = run_cli(capsys, "contract", path, "--method", "bruck",
                               "--deleted", "4")
        assert code == 0
        assert out == "# deleted: 4\n# transversal: 3 1 2\n" + CYC3_TEXT

    def test_except_complete(self, capsys, tmp_path):
        path = write(tmp_path, format_lsq(grids.BEL_OUT4))
        out = run_cli(capsys, "contract", path, "--method", "except",
                      "--deleted", "4")[1]
        assert out == ("# deleted: 4\n# sigma: 3 1 2\n"
                       "# classification: complete\n" + CYC3_TEXT)

    def test_except_quasicomplete(self, capsys, tmp_path):
        path = write(tmp_path, format_lsq(grids.DD_OUT5))
        out = run_cli(capsys, "contract", path, "--method", "except",
                      "--deleted", "5")[1]
        assert out == ("# deleted: 5\n# sigma: 1 3 2 4\n"
                       "# classification: quasicomplete special=1 pair=(3,4)\n"
                       + QC4_TEXT)

    def test_try_all(self, capsys, tmp_path):
        path = write(tmp_path, format_lsq(grids.BRUCK_OUT4))
        out = run_cli(capsys, "contract", path, "--method", "bruck", "--try-all")[1]
        assert blocks(out) == [("# deleted: 4\n# transversal: 3 1 2\n"
                                + CYC3_TEXT).strip()]

    def test_try_all_without_candidates(self, capsys, tmp_path):
        path = write(tmp_path, format_lsq(cyclic_square(4)))
        code, _, err = run_cli(capsys, "contract", path, "--method", "bruck",
                               "--try-all")
        assert code == 3
        assert "no feasible contraction" in err

    def test_infeasible_symbol(self, capsys, tmp_path):
        path = write(tmp_path, format_lsq(grids.BRUCK_OUT4))
        code, _, err = run_cli(capsys, "contract", path, "--method", "bruck",
                               "--deleted", "1")
        assert code == 3
        assert err.startswith("infeasible:")

    def test_deleted_out_of_range(self, capsys, tmp_path):
        path = write(tmp_path, format_lsq(grids.BRUCK_OUT4))
        code = run_cli(capsys, "contract", path, "--method", "bruck",
                       "--deleted", "9")[0]
        assert code == 2

    def test_exactly_one_selector_required(self, capsys, tmp_path):
        path = write(tmp_path, format_lsq(grids.BRUCK_OUT4))
        both = run_cli(capsys, "contract", path, "--method", "bruck",
                       "--deleted", "4", "--try-all")[0]
        neither = run_cli(capsys, "contract", path, "--method", "bruck")[0]
        assert both == 2
        assert neither == 2


TOP_DESCRIPTION = ("Latin square prolongations, contractions, and the "
                   "transversal/mapping enumeration behind them.")
COMMAND_HELP = {  # the full parser's commands and help lines, in help order
    "verify": "check a square file against the Latin invariants",
    "gen": "emit a seeded pseudo-random Latin square",
    "complete": "enumerate completions of a partial square",
    "transversals": "count or list transversals",
    "qcmappings": "count or list quasicomplete mappings",
    "prolong": "run a prolongation construction",
    "contract": "run a contraction (inverse prolongation)",
}
NON_LSQ_INTEGER = {  # an argument list with "+3" where an int is due
    "verify": ["-", "+3"],  # no integer flag: an extra argument
    "gen": ["--order", "+3"],
    "complete": ["-", "--limit", "+3"],
    "transversals": ["-", "--disjoint", "+3"],
    "qcmappings": ["-", "--limit", "+3"],
    "prolong": ["-", "--method", "bruck", "--except", "+3"],
    "contract": ["-", "--method", "bruck", "--deleted", "+3"],
}


def parse_bytes(capsys, parser, argv):
    """The exit code, stdout and stderr of parsing argv (code None: parsed)."""
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "prolong" in out

    @pytest.mark.parametrize("argv", [["--help"], [], ["frobnicate"]])
    def test_top_level_bytes_frozen(self, capsys, argv):
        frozen = argparse.ArgumentParser(prog="latinsq", description=TOP_DESCRIPTION)
        sub = frozen.add_subparsers(dest="command", required=True, metavar="COMMAND")
        for name, help_ in COMMAND_HELP.items():
            sub.add_parser(name, help=help_)
        assert run_cli(capsys, *argv) == parse_bytes(capsys, frozen, argv)

    def test_full_parser_has_every_command_in_help_order(self):
        sub, = (a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(COMMAND_HELP)
        assert [a.dest for a in sub._choices_actions] == list(COMMAND_HELP)

    @pytest.mark.parametrize("command", COMMAND_HELP)
    def test_subcommand_help_and_usage_errors_name_latinsq(self, capsys, command):
        for rest in (["--help"], ["--bogus"], [], NON_LSQ_INTEGER[command]):
            argv = [command, *rest]
            code, out, err = parse_bytes(capsys, cli.build_parser(), argv)
            assert code == (0 if rest == ["--help"] else 2), argv
            assert (out if code == 0 else err).startswith("usage: latinsq"), argv

    def test_runs_share_one_parser_built_once(self, capsys, tmp_path):
        cli.build_parser.cache_clear()
        cyc3 = write(tmp_path, CYC3_TEXT)
        codes = [run_cli(capsys, *argv)[0] for argv in (
            ["verify", cyc3], ["transversals", cyc3], ["--help"], ["frobnicate"])]
        assert codes == [0, 0, 0, 2]
        assert cli.build_parser.cache_info().misses == 1

    def test_run_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["latinsq", "verify", "-"])
        monkeypatch.setattr("sys.stdin", io.StringIO(CYC3_TEXT))
        assert cli.run() == 0
        assert capsys.readouterr() == ("ok\n", "")
        monkeypatch.setattr("sys.argv", ["latinsq", "--help"])
        assert cli.run() == 0
        assert capsys.readouterr().out.startswith("usage: latinsq [-h] COMMAND ...\n")


@pytest.mark.parametrize("argv", [
    ("transversals", "--list", "--limit", "-1"),
    ("transversals", "--count", "--limit", "-1"),
    ("transversals", "--disjoint", "2", "--list", "--limit", "-1"),
    ("qcmappings", "--list", "--limit", "-3"),
    ("complete", "--limit", "-1"),
    ("prolong", "--method", "gen-belyavskaya", "--transversal", "1 2 3",
     "--except", "1", "--limit", "-2"),
])
def test_negative_limit_rejected(capsys, tmp_path, argv):
    path = write(tmp_path, CYC3_TEXT)
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: --limit must be 0 (no limit) or positive, got {argv[-1]}\n"


@pytest.mark.parametrize("argv", [
    ("transversals", "--limit", "2"),
    ("transversals", "--count", "--limit", "0"),
    ("transversals", "--disjoint", "2", "--limit", "1"),
    ("qcmappings", "--limit", "2"),
])
def test_limit_without_list_rejected(capsys, tmp_path, argv):
    path = write(tmp_path, format_lsq(cyclic_square(5)))
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert (code, out, err) == (2, "", "error: --limit applies only to --list\n")


@pytest.mark.parametrize("text, argv, message", [
    (QC4_TEXT, ("prolong", "FILE", "--method", "gen-dd"),
     "--sigma must be given at least once for this method"),
    (CYC3_TEXT, ("prolong", "FILE", "--method", "belyavskaya",
                 "--transversal", "3 1 2", "--except", "4"),
     "--except row 4 out of range 1..3"),
    (CYC3_TEXT, ("prolong", "FILE", "--method", "gen-belyavskaya",
                 "--transversal", "1 2 3", "--transversal", "2 3 1", "--except", "1"),
     "need exactly one --except per --transversal"),
    (QC4_TEXT, ("prolong", "FILE", "--method", "gen-dd", "--sigma", "1 3 2 4",
                "--sigma", "2 1 4 3", "--keep", "4"),
     "need exactly one --keep per --sigma, or none at all"),
    (CYC3_TEXT, ("prolong", "FILE", "--method", "two-step", "--t1", "3 1 2"),
     "--t1 and --t2 are required for --method two-step"),
], ids=["gen-dd-no-sigma", "except-out-of-range", "except-per-transversal",
        "keep-per-sigma", "two-step-no-t2"])
def test_prolong_parameter_errors(capsys, tmp_path, text, argv, message):
    path = write(tmp_path, text)
    code, out, err = run_cli(capsys, *[path if a == "FILE" else a for a in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


# Each case: file contents (None = no file), argv with FILE and TOKEN
# placeholders, a token the command accepts, and one int() reads but the
# LSQ format does not.
BRUCK4_TEXT = format_lsq(grids.BRUCK_OUT4)
DISJOINT1 = ("prolong", "FILE", "--method", "disjoint", "--transversal", "1 2 3")


@pytest.mark.parametrize("text, argv, good, bad", [
    (CYC3_TEXT, ("prolong", "FILE", "--method", "bruck", "--transversal", "TOKEN"),
     "3 1 2", "3 1 \uff12"),
    (CYC3_TEXT, ("prolong", "FILE", "--method", "bruck", "--transversal", "TOKEN"),
     "3 1 2", "+3 1 2"),
    (QC4_TEXT, ("prolong", "FILE", "--method", "dd", "--sigma", "TOKEN"),
     "1 3 2 4", "1 3 2 +4"),
    (CYC3_TEXT, DISJOINT1 + ("--fill", "TOKEN"), "4", "\uff14"),
    (CYC3_TEXT, DISJOINT1 + ("--cols", "TOKEN"), "1", "+1"),
    (CYC3_TEXT, DISJOINT1 + ("--rows", "TOKEN"), "1", "\u0661"),
    (CYC3_TEXT, ("prolong", "FILE", "--method", "two-step", "--t1", "TOKEN",
                 "--t2", "1 2 3"), "3 1 2", "+3 1 2"),
    (CYC3_TEXT, ("prolong", "FILE", "--method", "two-step", "--t1", "3 1 2",
                 "--t2", "TOKEN"), "1 2 3", "1 2 0_3"),
    (None, ("gen", "--order", "TOKEN"), "10", "1_0"),
    (None, ("gen", "--order", "3", "--seed", "TOKEN"), "1", "+1"),
    (None, ("gen", "--order", "3", "--seed", "TOKEN"), "1", "1" * 5000),
    (CYC3_TEXT, ("transversals", "FILE", "--list", "--limit", "TOKEN"),
     "2", "\uff12"),
    (CYC3_TEXT, ("complete", "FILE", "--limit", "TOKEN"), "1", "+1"),
    (BRUCK4_TEXT, ("contract", "FILE", "--method", "bruck", "--deleted", "TOKEN"),
     "4", "\uff14"),
    (CYC3_TEXT, ("prolong", "FILE", "--method", "belyavskaya",
                 "--transversal", "3 1 2", "--except", "TOKEN"), "2", "+2"),
    (QC4_TEXT, ("prolong", "FILE", "--method", "dd", "--sigma", "1 3 2 4",
                "--keep", "TOKEN"), "4", "0_4"),
    (CYC3_TEXT, ("transversals", "FILE", "--disjoint", "TOKEN"), "2", "+2"),
], ids=["transversal", "transversal-sign", "sigma", "fill", "cols", "rows",
        "t1", "t2", "order", "seed", "seed-digits", "list-limit",
        "complete-limit", "deleted", "except", "keep", "disjoint"])
def test_integer_flags_take_only_lsq_tokens(capsys, tmp_path, text, argv,
                                            good, bad):
    path = write(tmp_path, text) if text is not None else None

    def fill(token):
        return [{"FILE": path, "TOKEN": token}.get(a, a) for a in argv]

    assert run_cli(capsys, *fill(good))[0] == 0
    code, out, err = run_cli(capsys, *fill(bad))
    assert (code, out) == (2, "")
    assert repr(bad) in err
    assert f"argument {argv[argv.index('TOKEN') - 1]}: " in err


@pytest.mark.parametrize("first", ["forward", "reversed"])
def test_repeated_runs_give_the_same_bytes(capsys, tmp_path, first):
    """Every argv gives the same stdout, stderr and exit code each time it
    runs in one process, whichever argvs ran before it."""
    cyc3 = write(tmp_path, CYC3_TEXT)
    qc4 = write(tmp_path, QC4_TEXT, name="qc4.lsq")
    bruck4 = write(tmp_path, BRUCK4_TEXT, name="bruck4.lsq")
    partial = write(tmp_path, "3\n1 2 .\n. 3 1\n3 . 2\n", name="partial.lsq")
    argvs = [["--help"], [], ["frobnicate"]]
    for command in COMMAND_HELP:
        argvs += [[command, "--help"], [command, *NON_LSQ_INTEGER[command]]]
    argvs += [
        ["verify", cyc3],
        ["verify", partial],
        ["gen", "--order", "5", "--seed", "2"],
        ["complete", partial, "--all"],
        ["transversals", cyc3, "--list"],
        ["transversals", cyc3, "--limit", "2"],
        ["qcmappings", qc4, "--list", "--limit", "3"],
        ["prolong", cyc3, "--method", "bruck", "--transversal", "3 1 2",
         "--sigma", "1 2 3"],
        ["prolong", cyc3, "--method", "disjoint",
         "--transversal", "1 2 3", "--transversal", "2 3 1"],
        ["prolong", qc4, "--method", "gen-dd", "--sigma", "1 3 2 4",
         "--sigma", "2 1 4 3", "--no-diag-seed", "--limit", "0"],
        ["contract", bruck4, "--method", "bruck", "--deleted", "4"],
    ]
    if first == "reversed":
        argvs.reverse()
    first_pass = [run_cli(capsys, *argv) for argv in argvs]
    assert {code for code, _, _ in first_pass} == {0, 1, 2}
    assert [run_cli(capsys, *argv) for argv in argvs[::-1]] == first_pass[::-1]
    assert [run_cli(capsys, *argv) for argv in argvs] == first_pass
    assert cli.build_parser() is cli.build_parser()
