"""End-to-end CLI contract: bytes, exit codes, files, environment knobs."""

import hashlib
import json
import sys

import pytest

from dimeq import cli, theorems
from dimeq.errors import InternalError

# sha256 of the full `dimeq verify all` stdout; any change to a report's
# bytes, or to which reports the sweep emits, changes it.
VERIFY_ALL_SHA256 = "283cc8e4761017d13f2a187bdef1eef329d1a1002abe7d842b4ecaac98f9453e"

# sha256 of `dimeq equation solve --n 28 --l 5 --max-n 28 --max-l 5` stdout
# in each format: the largest search the solve benchmark runs.
SOLVE_28_5_SHA256 = {
    "json": "eb47519d72ad41846ce92d1a1ac2fd6c1db4cec6d10b94e0061db84148899f22",
    "csv": "8cf770e9acfe2df903b9574271e0cab8d72354a10cc84dce1f15ae44edcfbafc",
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ("DIMEQ_MAX_N", "DIMEQ_MAX_L", "DIMEQ_CEX_CAP", "DIMEQ_WORKERS"):
        monkeypatch.delenv(name, raising=False)


def run_cli(capsys, *argv):
    rc = cli.run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


SPEH_PAIR = {
    "n": 4,
    "representations": [
        {"kind": "speh", "p": 2, "q": 2},
        {"kind": "speh", "p": 2, "q": 2},
    ],
}
MINIMAL_TRIPLE_6 = {
    "n": 6,
    "representations": [
        {
            "kind": "eisenstein",
            "blocks": [5, 1],
            "constituents": [{"kind": "trivial"}, {"kind": "trivial"}],
        }
    ]
    * 3,
}
FULL_TRIPLE_3 = {
    "n": 3,
    "representations": [
        {"kind": "generic"},
        {"kind": "generic"},
        {
            "kind": "eisenstein",
            "blocks": [2, 1],
            "constituents": [{"kind": "trivial"}, {"kind": "trivial"}],
        },
    ],
}


class TestPartitionCommands:
    def test_dim_exact_bytes(self, capsys):
        rc, out, err = run_cli(capsys, "partition", "dim", "[3,3]")
        assert rc == 0 and err == ""
        assert out == '{"orbit_dim":24,"rep_dim":12,"n":6}\n'

    def test_dim_text(self, capsys):
        rc, out, _ = run_cli(capsys, "partition", "dim", "[3,3]", "--format", "text")
        assert rc == 0 and out == "orbit_dim 24 rep_dim 12 n 6\n"

    def test_transpose(self, capsys):
        rc, out, _ = run_cli(capsys, "partition", "transpose", "[3,2,2,1]")
        assert rc == 0 and out == '{"partition":[4,3,1],"n":8}\n'

    def test_compare(self, capsys):
        rc, out, _ = run_cli(capsys, "partition", "compare", "[3,3]", "[4,1,1]")
        assert rc == 0 and out == '{"relation":"incomparable"}\n'
        rc, out, _ = run_cli(capsys, "partition", "compare", "[3,3]", "[2,2,2]")
        assert out == '{"relation":"greater"}\n'
        rc, out, _ = run_cli(capsys, "partition", "compare", "[3,3]", "[3,3]")
        assert out == '{"relation":"equal"}\n'

    def test_add(self, capsys):
        rc, out, _ = run_cli(capsys, "partition", "add", "[2,1]", "[1,1]")
        assert rc == 0 and out == '{"partition":[3,2],"n":5}\n'

    def test_from_epsilon(self, capsys):
        rc, out, _ = run_cli(capsys, "partition", "from-epsilon", "10101")
        assert rc == 0 and out == '{"partition":[2,2,2],"n":6}\n'

    def test_bad_partition_is_exit_2(self, capsys):
        rc, out, err = run_cli(capsys, "partition", "dim", "[2,3]")
        assert rc == 2 and out == "" and err.startswith("error:")
        rc, _, _ = run_cli(capsys, "partition", "dim", "not json")
        assert rc == 2

    def test_deeply_nested_partition_is_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, "partition", "dim", "[" * TOO_DEEP + "]" * TOO_DEEP)
        assert rc == 2 and err == "error: partition text is nested too deeply\n"

    def test_integer_too_long_to_convert_is_exit_2(self, capsys):
        # CPython refuses int conversions of more than 4,300 digits
        rc, out, err = run_cli(capsys, "partition", "dim", "[1" + "0" * 5000 + "]")
        assert rc == 2 and out == ""
        assert err.startswith("error: cannot parse partition:") and "digits" in err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_result_too_long_to_print_is_exit_3(self, capsys, fmt):
        # a 2,201-digit part converts, but its orbit dimension has 4,400 digits
        rc, out, err = run_cli(capsys, "partition", "dim", "[1" + "0" * 2200 + "]", "--format", fmt)
        assert rc == 3 and out == ""
        assert err.startswith("resource limit: result too large to print:")

    def test_bad_bits_is_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, "partition", "from-epsilon", "10201")
        assert rc == 2 and err.startswith("error:")


class TestRepCommands:
    def test_orbit(self, capsys, tmp_path):
        path = write_spec(tmp_path, "speh.json", {"kind": "speh", "p": 2, "q": 3})
        rc, out, _ = run_cli(capsys, "rep", "orbit", path, "--n", "6")
        assert rc == 0 and out == '{"orbit":[2,2,2],"n":6}\n'

    def test_dim_infers_constituent_ranks(self, capsys, tmp_path):
        path = write_spec(
            tmp_path,
            "eis.json",
            {
                "kind": "eisenstein",
                "blocks": [5, 1],
                "constituents": [{"kind": "trivial"}, {"kind": "trivial"}],
            },
        )
        rc, out, _ = run_cli(capsys, "rep", "dim", path)
        assert rc == 0
        assert out == '{"rep_dim":5,"orbit_dim":10,"orbit":[2,1,1,1,1],"n":6}\n'

    def test_rank_mismatch_is_exit_2(self, capsys, tmp_path):
        path = write_spec(tmp_path, "speh.json", {"kind": "speh", "p": 2, "q": 3})
        rc, _, err = run_cli(capsys, "rep", "orbit", path, "--n", "7")
        assert rc == 2 and err.startswith("error:")

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "rep", "orbit", str(tmp_path / "absent.json"))
        assert rc == 2 and err.startswith("error:")

    def test_garbage_json_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{{{", encoding="utf-8")
        rc, _, err = run_cli(capsys, "rep", "orbit", str(path))
        assert rc == 2 and "invalid JSON" in err


class TestEquationCommands:
    def test_check_holding_spec(self, capsys, tmp_path):
        path = write_spec(
            tmp_path,
            "gen.json",
            {"n": 4, "representations": [{"kind": "generic"}]},
        )
        rc, out, _ = run_cli(capsys, "equation", "check", path)
        assert rc == 0
        assert out == '{"lhs":6,"rhs":6,"holds":true,"slack":0}\n'

    def test_check_failing_spec_is_exit_1(self, capsys, tmp_path):
        path = write_spec(tmp_path, "pair.json", SPEH_PAIR)
        rc, out, _ = run_cli(capsys, "equation", "check", path)
        assert rc == 1
        assert out == '{"lhs":8,"rhs":6,"holds":false,"slack":2}\n'

    def test_check_full(self, capsys, tmp_path):
        path = write_spec(tmp_path, "full.json", FULL_TRIPLE_3)
        rc, out, _ = run_cli(capsys, "equation", "check-full", path)
        assert rc == 0
        assert out == '{"lhs":8,"rhs":8,"holds":true,"slack":0}\n'

    def test_reduce(self, capsys):
        rc, out, _ = run_cli(capsys, "equation", "reduce", "--n", "6")
        assert rc == 0
        assert (
            out
            == '{"n":6,"generic_dim":15,"minimal_eisenstein_dim":5,"target":15}\n'
        )

    def test_solve_json(self, capsys):
        rc, out, _ = run_cli(capsys, "equation", "solve", "--n", "4", "--l", "2")
        assert rc == 0
        assert out == (
            '{"n":4,"l":2,"target":6,"count":2,'
            '"solutions":[[[4],[1,1,1,1]],[[2,1,1],[2,1,1]]]}\n'
        )

    def test_solve_exclude_trivial(self, capsys):
        rc, out, _ = run_cli(
            capsys, "equation", "solve", "--n", "4", "--l", "2", "--exclude-trivial"
        )
        assert json.loads(out)["solutions"] == [[[2, 1, 1], [2, 1, 1]]]

    def test_solve_csv_golden(self, capsys):
        rc, out, _ = run_cli(
            capsys, "equation", "solve", "--n", "4", "--l", "2", "--format", "csv"
        )
        assert rc == 0
        assert out == (
            "n,l,solution_index,orbit_index,partition,rep_dim\n"
            "4,2,0,0,[4],6\n"
            '4,2,0,1,"[1,1,1,1]",0\n'
            '4,2,1,0,"[2,1,1]",3\n'
            '4,2,1,1,"[2,1,1]",3\n'
        )

    def test_solve_text_golden(self, capsys):
        rc, out, _ = run_cli(
            capsys, "equation", "solve", "--n", "6", "--l", "3", "--format", "text"
        )
        assert rc == 0
        assert out == (
            "2 solution(s) for n=6, l=3\n"
            "  [6] + [1,1,1,1,1,1] + [1,1,1,1,1,1]\n"
            "  [2,1,1,1,1] + [2,1,1,1,1] + [2,1,1,1,1]\n"
        )

    @pytest.mark.parametrize("fmt", sorted(SOLVE_28_5_SHA256))
    def test_solve_digest_at_n28_l5(self, capsys, fmt):
        rc, out, _ = run_cli(
            capsys, "equation", "solve", "--n", "28", "--l", "5",
            "--max-n", "28", "--max-l", "5", "--format", fmt,
        )
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_28_5_SHA256[fmt]

    def test_solve_over_default_bound_is_exit_3(self, capsys):
        rc, out, err = run_cli(capsys, "equation", "solve", "--n", "13", "--l", "2")
        assert rc == 3 and out == "" and err.startswith("resource limit:")

    def test_solve_flag_raises_bound(self, capsys):
        rc, out, _ = run_cli(
            capsys, "equation", "solve", "--n", "13", "--l", "2", "--max-n", "13"
        )
        assert rc == 0 and json.loads(out)["count"] > 0

    def test_env_raises_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("DIMEQ_MAX_N", "14")
        rc, out, _ = run_cli(capsys, "equation", "solve", "--n", "14", "--l", "2")
        assert rc == 0 and json.loads(out)["n"] == 14

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DIMEQ_MAX_N", "14")
        rc, _, err = run_cli(
            capsys, "equation", "solve", "--n", "14", "--l", "2", "--max-n", "13"
        )
        assert rc == 3 and err.startswith("resource limit:")

    def test_garbage_env_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("DIMEQ_MAX_N", "plenty")
        rc, _, err = run_cli(capsys, "equation", "solve", "--n", "4", "--l", "2")
        assert rc == 2 and err.startswith("error:")


class TestVerifyCommands:
    def test_lemma1_json(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "lemma1", "--n", "6")
        assert rc == 0
        payload = json.loads(out)
        assert payload["statement"] == "lemma1"
        assert payload["passed"] is True
        assert payload["parameters"] == {"n": 6, "rectangles": 3}
        assert payload["space_size"] == 10
        assert payload["counterexamples"] == []

    def test_each_verifier_runs(self, capsys):
        for argv in (
            ("verify", "lemma2", "--n", "8"),
            ("verify", "lemma2-reduction", "--n", "8"),
            ("verify", "prop3", "--n", "8"),
            ("verify", "prop4", "--n", "10", "--l", "3"),
            ("verify", "prop5", "--n", "12", "--q", "6", "--l", "3"),
            ("verify", "epsilon-orbit", "--n", "6", "--p", "2", "--q", "3"),
        ):
            rc, out, _ = run_cli(capsys, *argv)
            assert rc == 0, argv
            assert json.loads(out)["passed"] is True, argv

    def test_strict_prop4_is_exit_1(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify", "prop4", "--n", "10", "--l", "3", "--mode", "strict"
        )
        assert rc == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert [9, 9, 3] in [c["blocks"] for c in payload["counterexamples"]]

    def test_cex_cap_flag(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "verify",
            "prop4",
            "--n",
            "10",
            "--l",
            "3",
            "--mode",
            "strict",
            "--cex-cap",
            "3",
        )
        payload = json.loads(out)
        assert len(payload["counterexamples"]) == 3
        assert payload["parameters"]["counterexamples_total"] == 8

    def test_negative_cex_cap_is_exit_2(self, capsys):
        rc, _, err = run_cli(
            capsys, "verify", "lemma1", "--n", "6", "--cex-cap", "-1"
        )
        assert rc == 2 and err.startswith("error:")

    def test_text_format(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify", "lemma1", "--n", "6", "--format", "text"
        )
        assert rc == 0 and out.startswith("lemma1: PASSED")

    def test_all_stdout_is_pinned(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "all")
        assert rc == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256

    def test_all_capped(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "all", "--max-n", "6")
        assert rc == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["report_count"] == 50
        assert len(payload["reports"]) == 50

    @pytest.mark.parametrize("cap", ["1", "0", "-5"])
    def test_all_capped_below_every_range_is_exit_2(self, capsys, cap):
        # a cap below every verifier's range would sweep nothing and pass
        rc, out, err = run_cli(capsys, "verify", "all", "--max-n", cap)
        assert rc == 2 and out == ""
        assert err == f"error: max-n must be >= 2, got {cap}\n"

    def test_all_capped_at_the_lowest_range(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "all", "--max-n", "2")
        statements = [r["statement"] for r in json.loads(out)["reports"]]
        assert rc == 0
        assert statements == ["lemma2", "lemma2_reduction", "lemma1", "epsilon_orbit"]

    def test_workers_must_be_positive(self, capsys):
        # the --workers knob is deleted: any value is an unknown flag
        rc, out, err = run_cli(
            capsys, "verify", "lemma1", "--n", "6", "--workers", "0"
        )
        assert rc == 2 and out == ""
        assert "error: unrecognized arguments: --workers 0" in err

    def test_workers_do_not_change_bytes(self, capsys, monkeypatch):
        rc, out, _ = run_cli(capsys, "verify", "lemma2", "--n", "9", "--workers", "4")
        assert rc == 2 and out == ""
        _, base, _ = run_cli(capsys, "verify", "lemma2", "--n", "9")
        monkeypatch.setenv("DIMEQ_WORKERS", "7")
        _, with_env, _ = run_cli(capsys, "verify", "lemma2", "--n", "9")
        assert base == with_env


class TestVanishCommand:
    def test_vanishes(self, capsys, tmp_path):
        path = write_spec(tmp_path, "triple.json", MINIMAL_TRIPLE_6)
        rc, out, _ = run_cli(capsys, "vanish", path)
        assert rc == 0
        payload = json.loads(out)
        assert payload["verdict"] == "vanishes" and payload["by"] == "cor1"

    def test_expect_vanish_met(self, capsys, tmp_path):
        path = write_spec(tmp_path, "triple.json", MINIMAL_TRIPLE_6)
        rc, _, _ = run_cli(capsys, "vanish", path, "--expect-vanish")
        assert rc == 0

    def test_expect_vanish_unmet_is_exit_1(self, capsys, tmp_path):
        path = write_spec(tmp_path, "pair.json", SPEH_PAIR)
        rc, out, _ = run_cli(capsys, "vanish", path, "--expect-vanish")
        assert rc == 1
        assert json.loads(out)["verdict"] == "equation_fails"

    def test_text_format_is_indented_json(self, capsys, tmp_path):
        path = write_spec(tmp_path, "pair.json", SPEH_PAIR)
        rc, out, _ = run_cli(capsys, "vanish", path, "--format", "text")
        assert rc == 0 and out.startswith("{\n")


def nested_spec_text(depth):
    """A spec whose first representation nests Eisenstein constituents
    depth levels deep (JSON nesting 2·depth), written out directly: the
    json module's encoder recurses too.  Level k from the inside has
    blocks [k + 1, 1]."""
    head = "".join(
        f'{{"kind": "eisenstein", "blocks": [{k + 1}, 1], "constituents": ['
        for k in range(depth, 0, -1)
    )
    tail = ', {"kind": "trivial"}]}' * depth
    rep = head + '{"kind": "generic"}' + tail
    return f'{{"n": {depth + 2}, "representations": [{rep}, {{"kind": "generic"}}]}}'


# Deeper than any interpreter's recursion limit lets json load: CPython
# 3.10/3.11 stop near 1,000 levels, later versions allow several thousand.
TOO_DEEP = 100_000


class TestInputBoundary:
    def test_huge_rank_spec_is_answered(self, capsys, tmp_path):
        spec = {
            "n": 10**8,
            "representations": [{"kind": "generic"}, {"kind": "speh", "p": 2, "q": 5 * 10**7}],
        }
        rc, out, _ = run_cli(capsys, "vanish", write_spec(tmp_path, "big.json", spec))
        payload = json.loads(out)
        assert rc == 0
        assert (payload["verdict"], payload["by"]) == ("equation_fails", "lemma1")

    def test_float_block_is_exit_2(self, capsys, tmp_path):
        spec = {
            "n": 6,
            "representations": [
                {
                    "kind": "eisenstein",
                    "blocks": [3.0, 3],
                    "constituents": [{"kind": "speh", "p": 3, "q": 1}, {"kind": "generic"}],
                },
                {"kind": "generic"},
            ],
        }
        rc, out, err = run_cli(capsys, "vanish", write_spec(tmp_path, "f.json", spec))
        assert rc == 2 and out == ""
        assert err == 'error: eisenstein needs an integer "blocks", got 3.0\n'

    @pytest.mark.parametrize(
        "field,rep",
        [
            ("p", {"kind": "speh", "p": True, "q": 3}),
            ("q", {"kind": "speh", "p": 2, "q": 3.0}),
            ("n", {"kind": "generic", "n": 6.0}),
            ("n", {"kind": "trivial", "n": True}),
        ],
    )
    def test_bool_or_float_field_is_exit_2(self, capsys, tmp_path, field, rep):
        spec = {"n": 6, "representations": [rep, {"kind": "generic"}]}
        rc, _, err = run_cli(capsys, "vanish", write_spec(tmp_path, "b.json", spec))
        assert rc == 2
        assert f'needs an integer "{field}"' in err

    def test_bool_spec_rank_is_exit_2(self, capsys, tmp_path):
        spec = {"n": True, "representations": [{"kind": "generic"}]}
        rc, _, err = run_cli(capsys, "equation", "check", write_spec(tmp_path, "b.json", spec))
        assert rc == 2
        assert err == 'error: integral spec needs an integer "n", got True\n'

    @pytest.mark.parametrize(
        "rep",
        [
            # a sorted orbit of the wrong rank, then an unsorted one
            {"kind": "orbit", "parts": list(range(300_000, 0, -1))},
            {"kind": "orbit", "parts": list(range(1, 300_001))},
            {"kind": "x" * 300_000},
            {"kind": "speh", "p": [2] * 300_000, "q": 1},
        ],
    )
    def test_huge_input_is_not_echoed_whole(self, capsys, tmp_path, rep):
        spec = {"n": 5, "representations": [rep]}
        rc, out, err = run_cli(capsys, "vanish", write_spec(tmp_path, "h.json", spec))
        assert rc == 2 and out == "" and err.startswith("error:")
        assert len(err.encode()) < 1024

    def test_integer_too_long_to_convert_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(
            '{"n": 1' + "0" * 5000 + ', "representations": [{"kind": "generic"}]}',
            encoding="utf-8",
        )
        rc, out, err = run_cli(capsys, "vanish", str(path))
        assert rc == 2 and out == ""
        assert err.startswith(f"error: {path}: ") and "digits" in err

    def test_result_too_long_to_print_is_exit_3(self, capsys, tmp_path):
        n = 10**2200
        spec = {
            "n": n,
            "representations": [{"kind": "generic"}, {"kind": "speh", "p": 2, "q": n // 2}],
        }
        rc, out, err = run_cli(capsys, "vanish", write_spec(tmp_path, "wide.json", spec))
        assert rc == 3 and out == ""
        assert err.startswith("resource limit: result too large to print:")

    def test_spec_not_utf8_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'\xff{"n": 3}')
        rc, out, err = run_cli(capsys, "vanish", str(path))
        assert rc == 2 and out == "" and "utf-8" in err

    def test_json_too_deep_to_load_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(nested_spec_text(TOO_DEEP // 2), encoding="utf-8")
        rc, out, err = run_cli(capsys, "vanish", str(path))
        assert rc == 2 and out == ""
        assert err.endswith("JSON nested too deeply\n")

    def test_nesting_beyond_the_cap_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(nested_spec_text(150), encoding="utf-8")
        rc, _, err = run_cli(capsys, "vanish", str(path))
        assert rc == 2
        assert "nest more than 100 levels deep" in err

    def test_nesting_at_the_cap_is_read(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(nested_spec_text(100), encoding="utf-8")
        rc, out, _ = run_cli(capsys, "vanish", str(path))
        assert rc == 0 and json.loads(out)["by"] == "lemma1"


class TestPlumbing:
    def test_internal_error_is_exit_4(self, capsys, monkeypatch):
        def broken(n, cex_cap):
            raise InternalError("routes disagree")

        entry = theorems.VERIFIERS["lemma1"]
        monkeypatch.setitem(
            theorems.VERIFIERS, "lemma1", entry._replace(func=broken)
        )
        rc, out, err = run_cli(capsys, "verify", "lemma1", "--n", "6")
        assert rc == 4 and out == ""
        assert err == "internal error: routes disagree\n"

    def test_missing_subcommand_is_exit_2(self, capsys):
        assert run_cli(capsys, "equation")[0] == 2

    def test_unknown_command_is_exit_2(self, capsys):
        assert run_cli(capsys, "conjecture")[0] == 2

    @pytest.mark.parametrize(
        "name, value, argv",
        [
            ("DIMEQ_MAX_N", "abc", ("verify", "lemma1", "--n", "5")),
            ("DIMEQ_CEX_CAP", "-1", ("equation", "solve", "--n", "4", "--l", "2")),
            ("DIMEQ_MAX_L", "x", ("verify", "all", "--max-n", "3")),
        ],
    )
    def test_env_of_a_knob_the_command_lacks_is_ignored(
        self, capsys, monkeypatch, name, value, argv
    ):
        _, base, _ = run_cli(capsys, *argv)
        monkeypatch.setenv(name, value)
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 0 and err == ""
        assert out == base and base != ""

    def test_csv_rejected_outside_solve(self, capsys):
        rc, _, _ = run_cli(capsys, "partition", "dim", "[3,3]", "--format", "csv")
        assert rc == 2

    def test_out_writes_file_with_newline(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        rc, out, _ = run_cli(
            capsys, "partition", "dim", "[3,3]", "--out", str(target)
        )
        assert rc == 0 and out == ""
        assert target.read_text() == '{"orbit_dim":24,"rep_dim":12,"n":6}\n'

    def test_two_runs_identical_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            rc = cli.run(
                ["verify", "all", "--max-n", "5", "--out", str(target)]
            )
            assert rc == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_main_entry_point(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["dimeq", "equation", "reduce", "--n", "3"])
        rc = cli.main()
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["target"] == 3


# sha256 of json.dumps([exit code, stdout, stderr]) for `dimeq ARGV` at
# COLUMNS=80: --help of the root, of each group and of each of the 20 leaves,
# then each group run without its action (usage on stderr, exit 2).
USAGE_SHA256 = {
    "--help": "e60b8709c3d4fa38eb14dc2c7aaa83a3fd326a9abc84f4cbee0fff6c0f5220d3",
    "partition --help": "3e1ab95b56b3199a431582202b5d107697e56bbdcfb3e1708293cf0043f95f65",
    "rep --help": "9af81ce2b56525b107774c8fdf1772338787ed7d532cbd4ca82d0a436f1e8c5d",
    "equation --help": "e844d9d6ed353a1bbbaeea5256e7d4dd540f8f67f389b2aa2e21ad646ab32b11",
    "verify --help": "21afdac8b988b444e20784dc59b0885cf10c1d6c6bc653b2fb1169c96293aee3",
    "partition dim --help": "5ed8e6443c442f0f0257378d833e8e94b646670a56eb3e7bc8bce91a88f07028",
    "partition transpose --help": "6cab77cd95018f7680e408976ef7fc05eb4fabd24151f6dd514a5c2c9cf876e9",
    "partition compare --help": "c21b711bd0b036e7f60fd03298e529571ce6727c6617aeafef84d86e5db5223b",
    "partition add --help": "9322109fefb3e729560a57f4df4bc9889e50c56da29cc2fdead883eee3f6a6fb",
    "partition from-epsilon --help": "77aebcdf958f0f56409a7f0274bb66c74d9c03011e0cc2f4b3a8917f1a512b6b",
    "rep orbit --help": "b74986c9b6c90e31e42bdc6e0e076617a7a1ad2cd8b5b412693c27a74fb715ae",
    "rep dim --help": "bb5b50f4ff3a7f5ec6388c9e373685e3d60db2338849b3365f32009cde9c9dbd",
    "equation check --help": "44b505315ecaad766eaa0080081bb482840a4a758012f4df8d476dbe418a11d6",
    "equation check-full --help": "8f3ee7ed1795a983c3f4642817b5a44194732667196c4ddf1d88f98e6f346dab",
    "equation reduce --help": "7777c895ee8405af45bcf685ed228195c6990c24e43836c0537887aae68dc927",
    "equation solve --help": "26aa89b8376de278d46525679c4fdb08e39a4accceadf75635a2ec2060b8f5f2",
    "verify lemma2 --help": "7bcdb9575df60ff7c31c79694b3fa9f5b93b19eae98db84409e78c28b4cb7e45",
    "verify lemma2-reduction --help": "4192c38090e742aec388612b8d848bfec55929386705281e5ecd87ca4908df7e",
    "verify lemma1 --help": "1c6c6ae054f3074a129416370c11c9559290fd9bdd351afb637c3ce2a859e021",
    "verify prop3 --help": "fa111c8980ee25428e84d4b90b637dd08557f2db4be10c08571376ad1379bc8a",
    "verify prop4 --help": "87f4792483dd06221e3ccc8d8009bfc4bc87300515b35ac79879a7b1c85fe6a0",
    "verify prop5 --help": "aea6cdda4f96bf9e74cb9fca9fa1e9c32b6438c3e914b2289d6651135a5a5e60",
    "verify epsilon-orbit --help": "e74b27b68d7c6b71e3d2f02ab22345ef5858fc07f753e1df630186ccd7efde93",
    "verify all --help": "13325ad1773aca5500dde3c676db0923400b1c0f9366a125b2b755ae25e00cf3",
    "vanish --help": "738046cf5c794f1f5aa4acaee4fb154df4cfde23dc7b777d1ce2a6beeaf37e8e",
    "partition": "e2c2d289fc76020bad21e398574ba2e2865116e42313c22d28920e16d79d40bd",
    "rep": "b6b2dd0730bb4e8eaf7ddf79892c22a03c2cdf9e11073d450003d4d9cc2c7d6f",
    "equation": "e63be57431fb1c6243a3d25d31007b3dc6af265678d4a5f1a4647af409fbb338",
    "verify": "29e46088fd99c71218826f25f5f26b50228dcea37f7360ff585ebada60b336cb",
}


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or not (3, 10) <= sys.version_info[:2] <= (3, 12),
    reason="argparse wraps usage lines differently outside CPython 3.10-3.12",
)
class TestUsageBytes:
    @pytest.mark.parametrize("argv", list(USAGE_SHA256))
    def test_usage_and_help_bytes(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        rc, out, err = run_cli(capsys, *argv.split())
        dumped = json.dumps([rc, out, err]).encode()
        assert hashlib.sha256(dumped).hexdigest() == USAGE_SHA256[argv]
