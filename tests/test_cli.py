"""End-to-end CLI contract: bytes, exit codes, files.  Every knob is a flag
with an argparse default; no environment variable sets one."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dimeq import cli, representations, theorems
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

# sha256 of `dimeq equation solve` stdout, one argv per output format.
SOLVE_SHA256 = {
    "--n 28 --l 5 --max-n 28 --max-l 5":
        "eb47519d72ad41846ce92d1a1ac2fd6c1db4cec6d10b94e0061db84148899f22",
    "--n 28 --l 3 --exclude-trivial --format csv --max-n 28 --max-l 5":
        "0df39212240ee86b43e33fa12c59b1cabf732cec35e40b4e58c40a3f1638bf80",
    "--n 20 --l 2 --format text --max-n 28":
        "45edb3b94606523fa0435bac7d7cb8f84af23d5cf3eafef6216b25be56a2517c",
}


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
        rc, out, err = run_cli(capsys, "partition", "add", "[]", "[3]")
        assert rc == 2 and out == "" and err == "error: a partition needs at least one part\n"

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

    @pytest.mark.parametrize("argv", sorted(SOLVE_SHA256))
    def test_solve_digest_is_pinned(self, capsys, argv):
        rc, out, _ = run_cli(capsys, "equation", "solve", *argv.split())
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_SHA256[argv]

    def test_solve_over_default_bound_is_exit_3(self, capsys):
        rc, out, err = run_cli(capsys, "equation", "solve", "--n", "13", "--l", "2")
        assert rc == 3 and out == "" and err.startswith("resource limit:")

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--max-n", "-5", "max_n >= 2, got -5"),
            ("--max-n", "1", "max_n >= 2, got 1"),
            ("--max-l", "0", "max_l >= 1, got 0"),
        ],
    )
    def test_solve_bound_that_admits_no_search_is_exit_2(self, capsys, flag, value, message):
        # no n >= 2 or l >= 1 fits under it: invalid input, not a resource limit
        rc, out, err = run_cli(capsys, "equation", "solve", "--n", "4", "--l", "2", flag, value)
        assert rc == 2 and out == ""
        assert err == f"error: solution search needs {message}\n"

    def test_solve_flag_raises_bound(self, capsys):
        rc, out, _ = run_cli(
            capsys, "equation", "solve", "--n", "13", "--l", "2", "--max-n", "13"
        )
        assert rc == 0 and json.loads(out)["count"] > 0

    def test_solve_with_thousands_of_slots(self, capsys):
        # (4)(1^4)^1999 and (2,1,1)^2(1^4)^1998: one search slot per representation
        rc, out, err = run_cli(
            capsys, "equation", "solve", "--n", "4", "--l", "2000", "--max-l", "2000"
        )
        assert (rc, err) == (0, "")
        assert json.loads(out)["count"] == 2


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

    @pytest.mark.parametrize(
        "argv,slots",
        [
            (("prop4", "--n", "3000", "--l", "1400"), "n=3000, 1400 slots"),
            (("prop5", "--n", "6000", "--q", "3000", "--l", "1400"), "n=6000, 1399 slots"),
        ],
    )
    def test_too_deep_block_search_is_exit_3(self, capsys, argv, slots):
        rc, out, err = run_cli(capsys, "verify", *argv)
        assert (rc, out) == (3, "")
        assert err == f"resource limit: block search too deep: {slots}\n"

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
        # the library's check, before any sweep
        rc, out, err = run_cli(capsys, "verify", "lemma1", "--n", "6", "--cex-cap", "-1")
        assert rc == 2 and out == ""
        assert err == "error: verify_lemma1 needs cex_cap >= 0, got -1\n"

    def test_all_negative_cex_cap_is_exit_2(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "all", "--cex-cap", "-1")
        assert rc == 2 and out == ""
        assert err == "error: verification_sweep needs cex_cap >= 0, got -1\n"

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
        assert err == f"error: verification_sweep needs max_n >= 2, got {cap}\n"

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

    def test_one_representation_is_exit_2(self, capsys, tmp_path):
        spec = {"n": 4, "representations": [{"kind": "generic"}]}
        rc, out, err = run_cli(capsys, "vanish", write_spec(tmp_path, "one.json", spec))
        assert rc == 2 and out == ""
        assert err == "error: vanishing_verdict needs at least 2 representations, got 1\n"


# CI's two invalid specs and a constituent of the wrong rank, each with the
# stderr of `dimeq vanish` on it
INVALID_SPECS = {
    "increasing-blocks": (
        {
            "n": 6,
            "representations": [
                {
                    "kind": "eisenstein",
                    "blocks": [2, 4],
                    "constituents": [{"kind": "generic"}, {"kind": "generic"}],
                },
                {"kind": "generic"},
            ],
        },
        "error: blocks must be weakly decreasing, got [2, 4]\n",
    ),
    "bool-rank": (
        {
            "n": 6,
            "representations": [{"kind": "generic", "n": True}, {"kind": "speh", "p": 2, "q": 3}],
        },
        'error: generic needs an integer "n", got True\n',
    ),
    "constituent-rank": (
        {
            "n": 6,
            "representations": [
                {
                    "kind": "eisenstein",
                    "blocks": [4, 2],
                    "constituents": [{"kind": "speh", "p": 2, "q": 1}, {"kind": "generic"}],
                },
                {"kind": "generic"},
            ],
        },
        "error: representation has rank 2, expected 4: {'kind': 'speh', 'p': 2, 'q': 1}\n",
    ),
}

# valid descriptors equal to the parts of the invalid specs, and to what
# their wrong values are equal to (True == 1)
WARM_UP = (
    [{"kind": "generic", "n": n} for n in range(1, 7)]
    + [{"kind": "speh", "p": 2, "q": q} for q in (1, 2, 3)]
    + [
        {"kind": "eisenstein", "blocks": [4, 2], "constituents": [head, {"kind": "generic"}]}
        for head in ({"kind": "generic"}, {"kind": "speh", "p": 2, "q": 2})
    ]
)


class TestSharedDescriptors:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("name", INVALID_SPECS)
    def test_invalid_specs_read_alike_on_a_warm_table(
        self, capsys, monkeypatch, tmp_path, name, warm
    ):
        monkeypatch.setattr(representations, "_shared", {})
        if warm:
            for rep in WARM_UP:
                representations.rep_from_json(rep)
            assert len(representations._shared) == len(WARM_UP)
        spec, err = INVALID_SPECS[name]
        rc, out, got = run_cli(capsys, "vanish", write_spec(tmp_path, "bad.json", spec))
        assert (rc, out, got) == (2, "", err)


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

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"n": 4, "representations": [5, {"kind": "generic"}]},
             "representation must be a JSON object, got 5"),
            ({"n": 4, "representations": [{"kind": "orbit", "parts": 5}, {"kind": "generic"}]},
             "orbit needs a \"parts\" list, got {'kind': 'orbit', 'parts': 5}"),
            ({"n": 4, "representations": [
                {"kind": "eisenstein", "blocks": 5, "constituents": []}, {"kind": "generic"}]},
             'eisenstein needs "blocks" and "constituents" lists, '
             "got {'blocks': 5, 'constituents': [], 'kind': 'eisenstein'}"),
            ([], "integral spec must be a JSON object, got []"),
            ({"n": 4}, 'integral spec needs a "representations" list'),
        ],
    )
    def test_malformed_shape_is_exit_2(self, capsys, tmp_path, payload, message):
        rc, out, err = run_cli(capsys, "vanish", write_spec(tmp_path, "s.json", payload))
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_out_of_memory_is_exit_3(self, capsys, tmp_path, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "vanishing_verdict", exhausted)
        path = write_spec(tmp_path, "triple.json", MINIMAL_TRIPLE_6)
        assert run_cli(capsys, "vanish", path) == (3, "", "resource limit: out of memory\n")

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

    def test_forged_descriptor_dim_is_exit_4(self, capsys, monkeypatch, tmp_path):
        # every generic the reader builds claims one dimension too many, so
        # the dimension equation's dim_rep finds its two routes disagree; an
        # empty table of shared descriptors makes the reader build them
        build = representations.Generic.__init__

        def forged(self, n):
            build(self, n)
            self.__dict__["dim"] += 1

        monkeypatch.setattr(representations, "_shared", {})
        monkeypatch.setattr(representations.Generic, "__init__", forged)
        spec = {"n": 4, "representations": [{"kind": "generic"}, {"kind": "speh", "p": 2, "q": 2}]}
        rc, out, err = run_cli(capsys, "vanish", write_spec(tmp_path, "s.json", spec))
        assert rc == 4 and out == ""
        assert err == "internal error: dimension routes disagree: 7 vs 6 for Generic(n=4)\n"

    def test_missing_subcommand_is_exit_2(self, capsys):
        assert run_cli(capsys, "equation")[0] == 2

    def test_unknown_command_is_exit_2(self, capsys):
        assert run_cli(capsys, "conjecture")[0] == 2

    @pytest.mark.parametrize(
        "env",
        [
            {"DIMEQ_MAX_N": "14"},
            {"DIMEQ_MAX_L": "9"},
            {"DIMEQ_CEX_CAP": "-1"},
            dict.fromkeys(("DIMEQ_MAX_N", "DIMEQ_MAX_L", "DIMEQ_CEX_CAP"), "plenty"),
        ],
        ids=["max-n", "max-l", "cex-cap", "garbage"],
    )
    def test_environment_sets_no_knob(self, capsys, monkeypatch, env):
        # the DIMEQ_* variables are gone: the bounds and the cap come from flags
        solve = ("equation", "solve", "--n", "14", "--l", "2")
        strict = ("verify", "prop4", "--n", "10", "--l", "3", "--mode", "strict")
        base = run_cli(capsys, *strict)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        rc, out, err = run_cli(capsys, *solve)
        assert rc == 3 and out == ""
        assert err == "resource limit: solution search n=14, l=2 exceeds bounds max_n=12, max_l=4\n"
        assert run_cli(capsys, *strict) == base and base[0] == 1

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

    @pytest.mark.parametrize("argv", ["partition dim [3,3]", "verify all --format text", "--help"])
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_exit_141_and_quiet(self, argv, unbuffered):
        # `dimeq ... | head` whose reader is gone before the first write
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dimeq.cli", *argv.split()], stdout=write_end,
                stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        # argparse 3.11+ drops the OSError of its own unbuffered --help write
        dropped = argv == "--help" and unbuffered and sys.version_info >= (3, 11)
        assert (proc.returncode, proc.stderr) == (0 if dropped else 141, b"")


@pytest.fixture
def added_to(monkeypatch):
    """The container of each add_argument call made while the test runs."""
    containers = []
    original = argparse._ActionsContainer.add_argument

    def recording(self, *args, **kwargs):
        containers.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", recording)
    return containers


@pytest.fixture
def constructed(monkeypatch):
    """The parsers argparse.ArgumentParser.__init__ set up while the test runs."""
    parsers = []
    original = argparse.ArgumentParser.__init__

    def recording(self, *args, **kwargs):
        parsers.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
    return parsers


class TestStartup:
    # A run builds the root, and the group and leaf it dispatches to: it adds
    # -h to each of them, and the leaf's own arguments. Building every group
    # and leaf takes 25 parsers and 109 arguments.
    @pytest.mark.parametrize(
        "argv, parsers",
        [
            (("vanish", "SPEC"), 2),
            (("equation", "solve", "--n", "4", "--l", "2"), 3),
            (("partition", "dim", "[3,3]"), 3),
            (("verify", "prop4", "--n", "6", "--l", "3"), 3),
        ],
    )
    def test_a_run_builds_only_the_dispatched_parsers(
        self, capsys, tmp_path, constructed, argv, parsers
    ):
        spec = write_spec(tmp_path, "spec.json", SPEH_PAIR)
        assert run_cli(capsys, *[spec if w == "SPEC" else w for w in argv])[0] == 0
        assert len(constructed) == parsers

    @pytest.mark.parametrize(
        "argv, added",
        [(("equation", "solve", "--n", "4", "--l", "2"), 11), (("partition", "dim", "[3,3]"), 6)],
    )
    def test_a_run_adds_only_the_dispatched_arguments(self, capsys, added_to, argv, added):
        assert run_cli(capsys, *argv)[0] == 0
        assert len(added_to) == added

    def test_each_run_builds_its_own_parser(self, capsys, added_to):
        argv = ("equation", "solve", "--n", "4", "--l", "2")
        assert run_cli(capsys, *argv)[0] == 0
        first = added_to[:]
        added_to.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert len(added_to) == len(first) > 0
        assert not any(a is b for a in first for b in added_to)

    def test_import_leaves_out_rational_arithmetic(self):
        # all arithmetic is exact integers; fractions (which imports decimal)
        # would only add to every run's start-up
        code = "import sys, dimeq.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_startup_leaves_out_the_class_builders(self):
        # dataclasses and typing (and inspect, ast, dis, tokenize, which they
        # pull in) are the bulk of a bare interpreter's import of dimeq.cli;
        # -S keeps site from loading any of them first
        src = str(Path(__file__).resolve().parent.parent / "src")
        heavy = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import dimeq.cli; "
            f"dimeq.cli.build_parser(); print([m for m in {heavy!r} if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# sha256 of json.dumps([exit code, stdout, stderr]) for `dimeq ARGV` at
# COLUMNS=80: --help of the root, of each group and of each of the 20 leaves,
# then each group run without its action (usage on stderr, exit 2).
USAGE_SHA256 = {
    "--help": "e60b8709c3d4fa38eb14dc2c7aaa83a3fd326a9abc84f4cbee0fff6c0f5220d3",
    "partition --help": "3e1ab95b56b3199a431582202b5d107697e56bbdcfb3e1708293cf0043f95f65",
    "rep --help": "9af81ce2b56525b107774c8fdf1772338787ed7d532cbd4ca82d0a436f1e8c5d",
    "equation --help": "e844d9d6ed353a1bbbaeea5256e7d4dd540f8f67f389b2aa2e21ad646ab32b11",
    "verify --help": "4290c1fd002bc84c17111e5eeacbe0956203463fa567d475ca78993d9aec2a0d",
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


argparse_310_to_312 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or not (3, 10) <= sys.version_info[:2] <= (3, 12),
    reason="argparse wraps usage lines differently outside CPython 3.10-3.12",
)


@argparse_310_to_312
class TestUsageBytes:
    @pytest.mark.parametrize("argv", list(USAGE_SHA256))
    def test_usage_and_help_bytes(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        rc, out, err = run_cli(capsys, *argv.split())
        dumped = json.dumps([rc, out, err]).encode()
        assert hashlib.sha256(dumped).hexdigest() == USAGE_SHA256[argv]


# sha256 of json.dumps([exit code, stdout, stderr]) for `dimeq ARGV` at
# COLUMNS=80, with SPEC a spec file holding MINIMAL_TRIPLE_6 and REP a Speh
# descriptor of rank 6: the error paths argparse takes (missing, unknown,
# abbreviated and ambiguous flags, bad choices, extra positionals, --help after
# an action, `--`, `--flag=value`) and successful runs of every group in each
# of its formats.
RUN_SHA256 = {
    "": "f050f7e4a85a363a1938863c224eaac3cdc3ac8b303b2ac3268d7dd261334128",
    "-h": "e60b8709c3d4fa38eb14dc2c7aaa83a3fd326a9abc84f4cbee0fff6c0f5220d3",
    "bogus": "9b66499f127575abe0cce2eb252d52e4e035afe5b7aa54d73f1ad8df5f0730ae",
    "--bogus": "f050f7e4a85a363a1938863c224eaac3cdc3ac8b303b2ac3268d7dd261334128",
    "--version": "f050f7e4a85a363a1938863c224eaac3cdc3ac8b303b2ac3268d7dd261334128",
    "partition nope": "254884dc7901d7867a8b61f4eb5b9b29e8fd350146bb4ea609679b77b9cc9a70",
    "partition dim": "1b36a9e6283485ad0b72a4ffba57e8c11152467933dad71c97cc72bf1b530b95",
    "partition dim [3,3] extra": "ef485c306fb0adc9120cd16f4372b51d04962d43fa37eb761b181842fea42f48",
    "partition --bogus": "e2c2d289fc76020bad21e398574ba2e2865116e42313c22d28920e16d79d40bd",
    "partition dim -- -3": "1b2cb46e4778891ecf29467efabf5f10ddbeeebe2c52eec37a04f3ceb20ed34a",
    "partition dim [3,3] --format csv": "6ab9b9f875779904ba540898f24507cb93c3fc1044de0310fd043e07c5d39c0d",
    "partition dim [3,3] --out": "e283aa6a755430c2896b5d2ba2e3e1d06a0553c849029889f8f1e450ef866c9e",
    "partition dim [3,3]": "ad6ff9bba6046e895d257c04d55a0e7c4d830b87b42326ab32ea2500f59e2d32",
    "partition dim --format=text [3,3]": "38d5a33742038097c75ef796f4ec57cc95fdf5cc338b917ea312cda5f59e7210",
    "partition transpose [3,2,2,1] --format text": "7aa839ce544edbfb66fcfd7dd892105c5021c15803ec6455a74f2bbb023bb8c7",
    "partition compare [3,3] [4,1,1]": "31f7fef9f96fa770a7e43bd72c44cd4e4b7c6428c35a7b2c9e263c452f6d74cf",
    "partition add [2,1] [1,1] --format text": "31d04d9346f55f1df09c29c8f524347db9e372f271fd27ac23c543b00650e993",
    "partition from-epsilon 10101": "040013c00df1b553292485721420a7d464b1be1eab5c1b509c345dfc5237e686",
    "partition dim [3,x]": "688f8d4cd1122866a1808a142e2dd0933fc0c4ba6b6831c999c30ddac66ab999",
    "rep orbit REP --n 6": "f88b1e3164eaf31f6a644ae2d1f36349454ae4afa75552ec890a51bbd608c6b9",
    "rep orbit REP --n=6 --format text": "79cc8f82d7a36960f319583909a74282586123a2afcb2dacb6310148ee0625b4",
    "rep dim REP": "6c204ccc8f57bde0d25f442b034faa940fe5d648bd5d724dc05caadc56d7e844",
    "rep orbit": "a04f0130dea3e725a2671783df14f4ed1eba51efd6605ddfca09714ddb520093",
    "rep orbit REP --n six": "7ec2afcdac9b87433832ff11b4167a1e4f7807f674a0aac5e59b49d3101ab283",
    "equation solve --n 4": "268e92e5d2904a5d77a1c467f53b0d11c3568503b44e063f56bfcbc6bb721aa9",
    "equation solve --n 4 --l 2 --bogus": "2ee1aeb91ba7b482a272065aabde4b037226f165aa3080d72b6b6898e8545cc1",
    "equation solve --n 4 --l 2 --exclude": "95ca239361b5a68320f1c4922cbf229e13bb91c8dc74a47aea704344bee9536b",
    "equation solve --n 4 --l 2 --max": "49dd3499cc36bf2c6aa8674942c17abf7a70f6d5509e7f7c0019af5e949873f9",
    "equation solve --n=4 --l=2": "0a667af9b214d0e3f199b00d29e04ba5b07b758d1533103f4ef585652b737477",
    "equation solve --n 4 --l 2 --format text": "ac4078f6fd09c28e19aef49781cdf86a9559c0cb9bcd1a1222b25c9d17127575",
    "equation solve --n 4 --l 2 --format csv": "1a9d3ce0f4e72867dea5e0dd81318d12bd283e3ee760f22aaef16a030e38c893",
    "equation solve --n 4 --l x": "43f4375dd7c429daef33a45064397f9896d268a89d0be4afd3eaca865d0e84a9",
    "equation solve --help --n 4": "26aa89b8376de278d46525679c4fdb08e39a4accceadf75635a2ec2060b8f5f2",
    "equation --help solve": "e844d9d6ed353a1bbbaeea5256e7d4dd540f8f67f389b2aa2e21ad646ab32b11",
    "--help equation": "e60b8709c3d4fa38eb14dc2c7aaa83a3fd326a9abc84f4cbee0fff6c0f5220d3",
    "equation check SPEC": "7f46b2970637c50a0eaf38b6f7dece5eef016cb9a7f9f59a35230b4d4f13936d",
    "equation check-full SPEC --format text": "4a51274f49bbe59b8ed2d4272ea7fb90667cccaa27a670f0c11bbfc3bd7ebf12",
    "equation reduce --n 6 --format text": "59242dc563501b8dfb81fa9f269c5006113e5d2e90a874ad7fd5088579616237",
    "equation reduce": "48f890eb300814539cf8a1c06f23eea758d0b3f74d825755ea73eec51252f946",
    "equation solve --n 4 --l 2 --n 5": "21514e1b9be2738486a02e88b9101cc16ea75e95c796357a65958f40312015f6",
    "equation solve --n 40 --l 2": "34c003005e0b304750538e0dd141de0b6f277817d70d1cda6c25ae83ba760531",
    "verify prop4 --n 6 --l 3 --mode bad": "d9fa1feb002c056913cd6ce1a9bf00df168db5bd1ab214d2437d9917e51d8410",
    "verify lemma --n 5": "0ed0b9ad7d566cbc11b643d474413d6a4b95b7421ed6f5d8b3da9bfee440a60b",
    "verify lemma1 --n 5": "6becedfa2508f6cbfe95137e9564ae1405f30a61dfafc49a5fa2184eae424746",
    "verify lemma1 --n 5 --format text": "2204ae8efeaa475613d9e5afb5ff6b6dff423e19d9862454a524a1deaf3a42dd",
    "verify prop4 --n 6 --l 3 --mode strict": "f14301846be0c6a586965927ff66ab332bdb2ab993796e41712aa28860030c52",
    "verify prop5 --n 8 --q 2 --l 3": "4f3df173ccdefd9b0cf7b8f610e3da5957b5576a0bfcd0045a1af27e0e5031f6",
    "verify epsilon-orbit --n 6 --p 2 --q 3 --format text": "4c2105a1be44d5499046b3aa02d3848d4632d8aace61ef7fc74c7f7d9f795175",
    "verify all --max-n 3": "6b070c83735904e9e73a0bec0d3aaa4ed99bdf7352fa1201d14eb5daf3146daf",
    "verify all --max-n 3 --format text": "f7590c2ada5e62bdd16f2644c41e43b825ecf2c51d35404649831a5399f1df39",
    "verify lemma1": "10aa2d974ec0cf313c4361d341d80d2bc3632310d5885ec318d4cc62b82973e3",
    "verify lemma1 --n 5 --mode paper": "87674ef9b72d44f6b398b50a0b58323d867f4916752582db2dd3f76854fe05ed",
    "vanish SPEC": "5b1c21cbcb7cb325a685cfaeed3ad6d533d28689abc88ea1fbff60b56cd511bf",
    "vanish SPEC --format text": "bc9199e70992ab94593600f69287dfec5e4c36b000dc418be0981797af018574",
    "vanish --exp SPEC": "5b1c21cbcb7cb325a685cfaeed3ad6d533d28689abc88ea1fbff60b56cd511bf",
    "vanish": "ba6f2aaf11890a6ad49ef7ddf310b77103f2d999bad9098109348cee1618b4e1",
    "vanish SPEC --format csv": "c822be5d12130ecc05379e33a7717b71ffe43e5d2b617cbd63b1624be2c83ce8",
}


@pytest.fixture
def files(tmp_path):
    """The spec and descriptor files that SPEC and REP name in RUN_SHA256."""
    return {
        "SPEC": write_spec(tmp_path, "spec.json", MINIMAL_TRIPLE_6),
        "REP": write_spec(tmp_path, "rep.json", {"kind": "speh", "p": 2, "q": 3}),
    }


@argparse_310_to_312
class TestRunBytes:
    @pytest.mark.parametrize("argv", list(RUN_SHA256))
    def test_error_path_and_run_bytes(self, capsys, monkeypatch, files, argv):
        monkeypatch.setenv("COLUMNS", "80")
        rc, out, err = run_cli(capsys, *[files.get(w, w) for w in argv.split()])
        dumped = json.dumps([rc, out, err]).encode()
        assert hashlib.sha256(dumped).hexdigest() == RUN_SHA256[argv]


class TestLazyTreeBytes:
    # Unlike the digests above, this holds on every Python: building only the
    # dispatched parsers must give the bytes of building all of them at once.
    @pytest.mark.parametrize("argv", [*USAGE_SHA256, *RUN_SHA256])
    def test_lazy_and_eager_trees_give_the_same_bytes(
        self, capsys, monkeypatch, files, constructed, argv
    ):
        monkeypatch.setenv("COLUMNS", "80")
        words = [files.get(w, w) for w in argv.split()]
        lazy = run_cli(capsys, *words)
        lazy_init = cli._LazyParser.__init__

        def eager_init(self, *args, **kwargs):
            lazy_init(self, *args, **kwargs)
            self._build()

        monkeypatch.setattr(cli._LazyParser, "__init__", eager_init)
        constructed.clear()
        assert run_cli(capsys, *words) == lazy
        assert len(constructed) == 25
