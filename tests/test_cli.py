import contextlib
import io
import json
import shlex
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spindefect import cli
from spindefect.cli import main
from spindefect.plumbing import WuVector, graph_to_json, seifert_to_plumbing
from spindefect.seifert import SeifertData, SpinAssignment, parse_seifert, spin_enumerate

from conftest import PLATONIC, coprime_to, pairs_of


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--json")
    return rc, json.loads(out), err


def test_sigma_verbatim(capsys):
    rc, out, _ = run(capsys, "sigma", "3", "4", "--eps", "+1")
    assert rc == 0
    assert out == "sigma(3,4,+1) = 1\n"


def test_delta_all_spin_verbatim(capsys):
    rc, out, _ = run(capsys, "delta", "--seifert", "(2,1),(3,1),(5,-4)",
                     "--all-spin")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert "delta = -8" in lines[0]
    assert "(5-5)" in lines[0]
    assert lines[0].startswith("c = (1,1,0)")


def test_rp2_verbatim(capsys):
    rc, out, _ = run(capsys, "rp2", "--bplus", "0", "--bminus", "0", "--euler", "2")
    assert rc == 0
    assert "e = 2 admissible for eps in {-1}" in out
    assert "forces e in [-2, 2]" in out


def test_sigma_json(capsys):
    rc, doc, _ = run_json(capsys, "sigma", "3", "4", "--eps", "+1")
    assert rc == 0
    assert doc == {"input": {"q": 3, "p": 4, "eps": 1}, "sigma": 1}


def test_evencf(capsys):
    rc, out, _ = run(capsys, "evencf", "7", "4")
    assert rc == 0 and out == "7/4 = [[2, 4]]\n"
    rc, doc, _ = run_json(capsys, "evencf", "-7", "4")
    assert rc == 0 and doc["entries"] == [-2, -4] and doc["sign_sum"] == -2


def test_spin_list(capsys):
    rc, out, _ = run(capsys, "spin-list", "--seifert", "(2,1),(2,1),(4,1)")
    assert rc == 0
    assert out.splitlines()[0].startswith("4 spin structure(s)")
    rc, doc, _ = run_json(capsys, "spin-list", "--seifert", "(2,1),(3,1),(5,-4)")
    assert doc["count"] == 1
    assert doc["assignments"] == [{"cg": [1, 1, 0], "ch": 0}]


def test_delta_lens(capsys):
    rc, out, _ = run(capsys, "delta", "--lens", "8", "3", "--eps", "-1")
    assert rc == 0 and "delta(L(8,3), eps=-1) = 1" in out
    # p odd: eps is determined, flag not required
    rc, out, _ = run(capsys, "delta", "--lens", "7", "3")
    assert rc == 0 and "eps=+1" in out


def test_delta_single_spin(capsys):
    rc, out, _ = run(capsys, "delta", "--seifert", "(2,1),(2,1),(3,1)",
                     "--spin", "0,1,1")
    assert rc == 0
    assert "delta = -3" in out


def test_exit_codes_for_input_errors(capsys):
    # every command reports a lens pair that is not coprime in sigma's words
    not_coprime = {
        ("delta", "--lens", "8", "2", "--eps", "1"): "error: q = 2 and p = 8 are not coprime\n",
        ("sigma", "2", "4"): "error: q = 2 and p = 4 are not coprime\n",
    }
    cases = [
        ("delta", "--seifert", "(2,1),(3,1)(5,-4)", "--all-spin"),  # syntax
        ("delta", "--lens", "8", "3"),            # p even needs --eps
        *not_coprime,
        ("char-sphere", "--bplus", "0", "--bminus", "1", "--square", "2"),
        ("plumbing", "--star", "(-2; nope)"),
        ("delta", "--seifert", "(2,1),(3,1),(5,-4)", "--spin", "0,0,0"),
        ("seifert-to-plumbing", "--seifert", "(2,1),(3,1),(5,-4)"),  # no spin
    ]
    for argv in cases:
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert err.startswith("error:"), argv
        if argv in not_coprime:
            assert err == not_coprime[argv]


@pytest.mark.parametrize("argv", [
    ("evencf", "1418743667764364333709519393452", "709016970533566768071940907347"),
    ("sigma", "709016970533566768071940907347", "1418743667764364333709519393452",
     "--eps", "-1"),
    # a run of 1,110,046,380 twos, refused before it is listed
    ("evencf", "534774834313772", "267253656568013"),
    ("sigma", "267253656568013", "534774834313772", "--eps", "-1"),
])
def test_a_run_too_long_to_list_exits_2(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "too many to list" in err


def test_inadmissible_lens_sign_exits_2_with_the_admissible_one(capsys):
    for argv, message in [
        (("delta", "--lens", "3", "-2", "--eps", "1"),
         "L(3, -2) with p odd has only the eps = -1 structure"),
        (("sigma", "1", "3", "--eps", "-1"), "L(3, 1) with p odd has only the eps = +1 structure"),
        # a negative odd p is named by |p|, with q negated
        (("sigma", "1", "-3", "--eps", "-1"), "L(3, -1) with p odd has only the eps = +1 structure"),
    ]:
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert err == f"error: {message}\n"
        assert out == ""


_POINCARE = "(2,1),(3,1),(5,-4)"
_ONE_VERTEX = '{"vertices": [{"id": 0, "weight": -2}]}'


@pytest.mark.parametrize("argv", [
    # --lens names the space alone
    ("delta", "--lens", "4", "3", "--eps", "1", "--seifert", _POINCARE, "--all-spin"),
    ("delta", "--lens", "7", "3", "--seifert", _POINCARE),
    ("delta", "--lens", "7", "3", "--spin", "1,1,0"),
    ("delta", "--lens", "7", "3", "--all-spin"),
    ("seifert-to-plumbing", "--lens", "8", "3", "--eps", "-1", "--seifert", _POINCARE, "--spin", "1,1,0"),
    ("cobordism", "--lens", "7", "3", "--spin", "1,1,0"),
    ("cobordism", "--seifert", "", "--lens", "7", "3"),
    # one labelling or all of them, not both
    ("delta", "--seifert", _POINCARE, "--spin", "1,1,0", "--all-spin"),
    ("delta", "--seifert", _POINCARE, "--spin", "1,1,0", "--all-spin", "--eps", "1"),
    # --eps is a lens structure
    ("delta", "--seifert", _POINCARE, "--spin", "1,1,0", "--eps", "1"),
    ("delta", "--seifert", _POINCARE, "--all-spin", "--eps", "-1"),
    ("cobordism", "--seifert", _POINCARE, "--spin", "1,1,0", "--eps", "1"),
    ("seifert-to-plumbing", "--seifert", _POINCARE, "--spin", "1,1,0", "--eps", "-1"),
    # one tree at a time
    ("plumbing", "--star", "(0; 3)", "--graph", "-"),
])
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_conflicting_flags_exit_2(capsys, monkeypatch, argv, json_flag):
    monkeypatch.setattr("sys.stdin", io.StringIO(_ONE_VERTEX))
    try:
        rc = main([*argv, *json_flag])
    except SystemExit as exc:  # argparse's mutually exclusive groups
        rc = exc.code
    out = capsys.readouterr()
    assert rc == 2 and out.out == ""
    assert out.err.startswith(("error:", "usage:")), out.err


def test_argparse_errors_also_exit_2(capsys):
    for argv in (["sigma", "3"], ["no-such-command"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_obstructed_exit_codes(capsys):
    rc, *_ = run(capsys, "feasible", "--bplus", "0", "--bminus", "24", "--delta", "-8")
    assert rc == 1
    rc, *_ = run(capsys, "cobordism", "--seifert", "(2,1),(3,1),(5,-4)",
                 "--spin", "1,1,0")
    assert rc == 1
    rc, *_ = run(capsys, "rp2", "--bplus", "0", "--bminus", "0", "--euler", "10")
    assert rc == 1
    rc, *_ = run(capsys, "char-sphere", "--bplus", "2", "--bminus", "0",
                 "--square", "18")
    assert rc == 1
    # a computed non-verdict never uses 1
    rc, *_ = run(capsys, "definite", "--delta", "26")
    assert rc == 0


def test_json_deterministic(capsys):
    _, out1, _ = run(capsys, "delta", "--seifert", "(2,1),(3,1),(4,1)",
                     "--all-spin", "--json")
    _, out2, _ = run(capsys, "delta", "--seifert", "(2,1),(3,1),(4,1)",
                     "--all-spin", "--json")
    assert out1 == out2
    doc = json.loads(out1)
    assert {row["delta"] for row in doc["results"]} == {-5, -3}


def test_feasible_json_roundtrip(capsys):
    rc, doc, _ = run_json(capsys, "feasible", "--bplus", "0", "--bminus", "8",
                          "--delta", "-8")
    assert rc == 0 and doc["status"] == "ForcedEqual"
    spec = doc["input"]
    # the echoed sign is the shape's b_plus - b_minus, not an input of its own
    assert spec["sign"] == spec["b_plus"] - spec["b_minus"]
    rc2, doc2, _ = run_json(
        capsys, "feasible",
        "--bplus", str(spec["b_plus"]), "--bminus", str(spec["b_minus"]),
        "--delta", str(spec["delta"]),
    )
    assert rc2 == rc and doc2 == doc


def test_definite_json(capsys):
    rc, doc, _ = run_json(capsys, "definite", "--delta", "-8")
    assert rc == 0 and doc["forced"] and doc["counterexample"] is None
    rc, doc, _ = run_json(capsys, "definite", "--delta", "26")
    assert doc["counterexample"] == {"b_plus": 10, "b_minus": 0, "sign": 10}
    assert doc["input"] == {"delta": 26}
    # the survivor is reported at any |delta|, here past b = 64
    rc, doc, _ = run_json(capsys, "definite", "--delta", "1000")
    assert rc == 0 and not doc["forced"]
    assert doc["counterexample"] == {"b_plus": 120, "b_minus": 0, "sign": 120}
    rc, out, _ = run(capsys, "definite", "--delta", "1000")
    assert out == (
        "delta = 1000: unconstrained by the definite-filling criterion\n"
        "surviving definite shape with sign != delta: (b+ = 120, b- = 0)\n"
    )


def test_definite_has_no_scan_limit(capsys):
    with pytest.raises(SystemExit) as usage:
        main(["definite", "--delta", "0", "--scan-limit", "5"])
    assert usage.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage:")
    assert "unrecognized arguments: --scan-limit 5" in err


@pytest.mark.parametrize("argv", [
    ("feasible", "--bplus", "0", "--bminus", "24", "--delta", "-8"),
    ("rp2", "--bplus", "0", "--bminus", "0", "--euler", "2"),
    ("char-sphere", "--bplus", "2", "--bminus", "0", "--square", "18"),
])
def test_shape_commands_take_no_sign(capsys, argv):
    # the signature is b_plus - b_minus, so no flag sets it: --sign is a
    # usage error at any value, b_plus - b_minus among them
    for sign in ("-24", "0", "2", "5"):
        with pytest.raises(SystemExit) as usage:
            main([*argv, "--sign", sign])
        assert usage.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage:")
        assert f"unrecognized arguments: --sign {sign}" in err


def test_plumbing_star_and_wu(capsys):
    rc, out, _ = run(capsys, "plumbing", "--star",
                     "(-2; -2; -2,-2; -2,-2,-2,-2)")
    assert rc == 0
    assert "signature: (b+ = 0, b- = 8, b0 = 0)" in out
    assert "wu support [] -> delta = -8" in out

    rc, doc, _ = run_json(capsys, "plumbing", "--star", "(0; 3)", "--wu", "1,0")
    assert rc == 0
    assert doc["wu"] == [{"wu": [1, 0], "delta": 0}]


def test_plumbing_graph_file_and_stdin(capsys, tmp_path, monkeypatch):
    g, w = seifert_to_plumbing(SeifertData([(2, 1), (3, 1), (5, -4)]),
                               SpinAssignment((1, 1, 0)))
    doc = graph_to_json(g, w)
    path = tmp_path / "e8.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "plumbing", "--graph", str(path))
    assert rc == 0 and "b- = 8" in out and "delta = -8" in out

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    rc, out, _ = run(capsys, "plumbing", "--graph", "-")
    assert rc == 0 and "delta = -8" in out

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "plumbing", "--graph", str(bad))
    assert rc == 2 and err.startswith("error:")


@pytest.mark.parametrize("text", ['{"vertices":[{"id":0}]}', "[1,2]"])
def test_plumbing_graph_of_the_wrong_shape_exits_2(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc, out, err = run(capsys, "plumbing", "--graph", "-")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("bits", ["2,0", "0,-1", "1,3"])
def test_plumbing_wu_bits_other_than_0_or_1_exit_2(capsys, bits):
    rc, out, err = run(capsys, "plumbing", "--star", "(0; 3)", "--wu", bits)
    assert rc == 2 and out == ""
    assert err == "error: --wu bits must be 0 or 1\n"


def test_plumbing_past_the_wu_enumeration_cap_exits_2(capsys):
    star = "(0" + "; 0" * 14 + ")"  # 14 zero arms: GF(2) kernel of dimension 13
    for argv in (("plumbing", "--star", star), ("plumbing", "--star", star, "--json")):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err == "error: GF(2) kernel dimension 13 exceeds the enumeration cap\n"


def test_plumbing_wu_of_the_wrong_length_exits_2(capsys):
    rc, out, err = run(capsys, "plumbing", "--star", "(0; 3)", "--wu", "1,0,1")
    assert rc == 2 and out == ""
    assert err == "error: --wu needs 2 bits\n"


def test_delta_rejects_lens_p_zero(capsys):
    rc, out, err = run(capsys, "delta", "--lens", "0", "1")
    assert rc == 2 and out == ""
    assert err == "error: p must be nonzero\n"


def test_plumbing_text_verbatim(capsys):
    # zero weights: the tree signature takes its hyperbolic branch
    rc, out, _ = run(capsys, "plumbing", "--star", "(0; 0; 0; 1,2)")
    assert rc == 0
    assert out == (
        "vertices: 5, edges: 4\n"
        "signature: (b+ = 3, b- = 1, b0 = 1), sign = 2\n"
        "wu support [1, 2, 4] -> delta = 0\n"
        "wu support [4] -> delta = 0\n"
    )
    rc, out, _ = run(capsys, "seifert-to-plumbing",
                     "--seifert", "(2,1),(3,1),(5,-4)", "--spin", "1,1,0")
    assert rc == 0
    assert out == (
        "spin plumbing for (2,1),(3,1),(5,-4): 8 vertices\n"
        "weights: -2, -2, -2, -2, -2, -2, -2, -2\n"
        "signature: (b+ = 0, b- = 8, b0 = 0); delta = -8\n"
    )


def test_text_mode_builds_no_json_payload(capsys, monkeypatch):
    expected = {}
    argvs = [
        ("seifert-to-plumbing", "--lens", "8", "3", "--eps", "-1"),
        ("seifert-to-plumbing", "--seifert", "(2,1),(3,1),(5,-4)", "--spin", "1,1,0"),
        ("plumbing", "--star", "(0; 0; 0; 1,2)"),
        ("plumbing", "--star", "(0; 3)", "--wu", "1,0"),
    ]
    for argv in argvs:
        expected[argv] = run(capsys, *argv)

    def refuse(*args):
        raise AssertionError("text mode built the --json payload")

    monkeypatch.setattr(cli, "graph_to_json", refuse)
    monkeypatch.setattr(WuVector, "as_bits", refuse)
    for argv in argvs:
        assert run(capsys, *argv) == expected[argv]
        assert expected[argv][0] == 0


def test_seifert_to_plumbing_matches_library(capsys):
    rc, doc, _ = run_json(capsys, "seifert-to-plumbing",
                          "--seifert", "(2,1),(3,1),(5,-4)", "--spin", "1,1,0")
    assert rc == 0
    g, w = seifert_to_plumbing(SeifertData([(2, 1), (3, 1), (5, -4)]),
                               SpinAssignment((1, 1, 0)))
    assert doc["graph"] == graph_to_json(g, w)
    assert doc["delta"] == -8
    assert doc["signature"] == {"b_plus": 0, "b_minus": 8, "b_zero": 0}

    rc, doc, _ = run_json(capsys, "seifert-to-plumbing",
                          "--lens", "8", "3", "--eps", "-1")
    assert rc == 0 and doc["delta"] == 1


def test_cobordism_text(capsys):
    rc, out, _ = run(capsys, "cobordism", "--lens", "7", "3")
    assert rc == 1 and "infinite order" in out
    rc, out, _ = run(capsys, "cobordism", "--lens", "5", "2")
    assert rc == 0
    assert out == "delta = 0\ndefect vanishes: no conclusion from this criterion\n"
    rc, out, _ = run(capsys, "cobordism", "--seifert", "(2,1),(2,1),(4,1)",
                     "--spin", "0,0,0")
    assert rc == 0  # |H1| even: no order conclusion


def test_selftest_passes(capsys):
    rc, out, _ = run(capsys, "selftest")
    assert rc == 0
    assert out.splitlines()[-1] == "selftest: PASS"
    assert "sigma three-way" in out


_README = Path(__file__).resolve().parent.parent / "README.md"
_ECHO_EXIT = ' ; echo "exit $?"'


def _readme_cli_examples():
    """(argv, stdout, exit code) of each ``$ spindefect ...`` line of the
    README's "Command line" block; a line that ends in ``; echo "exit $?"``
    states its exit code last, any other exits 0."""
    block = _README.read_text().split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    examples = []
    for example in block.split("$ spindefect ")[1:]:
        command, *lines = example.rstrip("\n").split("\n")
        code = 0
        if command.endswith(_ECHO_EXIT):
            command = command[:-len(_ECHO_EXIT)]
            code = int(lines.pop().removeprefix("exit "))
        examples.append((shlex.split(command), "".join(f"{line}\n" for line in lines), code))
    return examples


def test_readme_cli_examples_match_the_cli(capsys):
    examples = _readme_cli_examples()
    assert len(examples) >= 5
    for argv, out, code in examples:
        assert run(capsys, *argv)[:2] == (code, out), argv


_DEEP = "[" * 200000 + "]" * 200000


def test_deeply_nested_graph_json_exits_2(capsys, tmp_path, monkeypatch):
    path = tmp_path / "deep.json"
    path.write_text(_DEEP)
    rc, out, err = run(capsys, "plumbing", "--graph", str(path))
    assert rc == 2 and out == ""
    assert err == "error: graph JSON is nested too deeply\n"

    monkeypatch.setattr("sys.stdin", io.StringIO(_DEEP))
    rc, out, err = run(capsys, "plumbing", "--graph", "-")
    assert rc == 2 and out == ""
    assert err == "error: graph JSON is nested too deeply\n"


# --- the exit-code contract over generated input -----------------------------
#
# 0 = computed, 1 = a mathematical verdict (only from the commands below),
# 2 = bad input with "error:" or a usage line on stderr.  Any exception
# escaping main fails the test; InternalDisagreement is the one traceback
# the contract allows, but it means two routes disagree, so it fails too.
# Integers stay within 10**4: sigma and evencf are linear in p on
# run-heavy pairs.

_VERDICT_COMMANDS = {"feasible", "cobordism", "rp2", "char-sphere", "selftest"}

_small = st.integers(-30, 30)
_int = st.one_of(_small, st.integers(-10**4, 10**4)).map(str)
_count = st.integers(-1, 30).map(str)
_junk = st.text(alphabet="()[]{},;:+-0123456789 abx\\", max_size=12)
_mults = st.one_of(
    st.sampled_from(PLATONIC).flatmap(st.permutations),
    st.lists(st.integers(-1, 12), min_size=1, max_size=4),
)
_seifert = st.one_of(
    _mults.flatmap(lambda ms: st.tuples(*[coprime_to(a, 40) for a in ms]).map(
        lambda bs: ",".join(f"({a},{b})" for a, b in zip(ms, bs)))),
    _junk,
)


@st.composite
def _seifert_with_spin(draw):
    # spherical data with one of its spin structures, so the computing paths
    # are reached as often as the error paths; text that does not parse gets
    # drawn labels, which every command with a space reads, so that its
    # parser is reached (seifert-to-plumbing and cobordism refuse --all-spin
    # in argparse, before any space is read)
    text = draw(_seifert)
    try:
        structures = spin_enumerate(parse_seifert(text))
    except ValueError:
        return ["--seifert", text, "--spin", draw(_spin)]
    c = draw(st.sampled_from(structures))
    return ["--seifert", text, "--spin", ",".join(map(str, c.cg))]


_bits = st.one_of(
    st.lists(st.integers(0, 1), min_size=1, max_size=4).map(lambda bs: ",".join(map(str, bs))),
    st.lists(st.integers(-1, 2), min_size=0, max_size=4).map(lambda bs: ",".join(map(str, bs))),
    _junk,
)
_spin = st.one_of(
    st.tuples(_bits, st.sampled_from(["", ";0", ";1", ";2", ";x"])).map("".join),
    _junk,
)
_star = st.one_of(
    st.tuples(_small, st.lists(st.lists(_small, max_size=4), max_size=6)).map(
        lambda t: "(" + "; ".join([str(t[0])] + [",".join(map(str, arm)) for arm in t[1]]) + ")"),
    _junk,
)


def _flag(name, values):
    return st.tuples(st.just(name), values).map(list)


_lens = st.tuples(_int, _int).map(lambda pq: ["--lens", *pq])
_coprime = pairs_of(_small, lambda p: coprime_to(p, 30))
_pair = st.one_of(st.tuples(_int, _int), _coprime.map(lambda pq: tuple(map(str, pq)))).map(list)
_eps = st.sampled_from([["--eps", "1"], ["--eps", "-1"], ["--eps", "0"]])
_shape = [_flag("--bplus", _count), _flag("--bminus", _count)]
_space = st.one_of(
    st.tuples(_small, _small, st.sampled_from([[], ["--eps", "1"], ["--eps", "-1"]])).map(
        lambda t: ["--lens", str(t[0]), str(t[1]), *t[2]]),
    _seifert_with_spin(),
)
# the flags that name a space, by name, so that extras can fit a drawn space
_SPACE_FLAGS = {"--seifert": _flag("--seifert", _seifert), "--spin": _flag("--spin", _spin),
                "--lens": _lens, "--eps": _eps, "--all-spin": st.just(["--all-spin"])}
_space_flags = [_SPACE_FLAGS[name] for name in ("--seifert", "--spin", "--lens", "--eps")]

# command -> (flags it needs, flags it may take); a required flag is
# occasionally dropped, so missing-flag errors are drawn too
_FLAGS = {
    "sigma": ([_pair], [_eps]),
    "evencf": ([_pair], []),
    "spin-list": ([_flag("--seifert", _seifert)], []),
    "delta": ([_space], _space_flags + [_SPACE_FLAGS["--all-spin"]]),
    "plumbing": ([], [_flag("--star", _star), st.just(["--graph", "-"]), _flag("--wu", _bits)]),
    "seifert-to-plumbing": ([_space], _space_flags),
    "feasible": (_shape + [_flag("--delta", _int)], []),
    "definite": ([_flag("--delta", _int)], []),
    "cobordism": ([_space], _space_flags),
    "rp2": (_shape + [_flag("--euler", _int)], []),
    "char-sphere": (_shape + [_flag("--square", _int)], []),
    "selftest": ([], []),
}

_json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-50, 50) | st.floats(allow_nan=False) | st.text(max_size=4),
    # a dict from a list of items: a repeated key collapses instead of being redrawn
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.tuples(st.text(max_size=6), inner), max_size=4).map(dict),
    max_leaves=12,
)
_vertex = st.fixed_dictionaries({"id": st.integers(-2, 8), "weight": _small})
_graph_doc = st.one_of(
    st.fixed_dictionaries(
        {"vertices": st.lists(_vertex, max_size=8)},
        optional={"edges": st.lists(st.lists(st.integers(-2, 8), min_size=2, max_size=2), max_size=8),
                  "wu": st.lists(st.integers(-1, 2), max_size=8)},
    ).map(json.dumps),
    _json_value.map(json.dumps),
    st.text(alphabet='[]{}",:0123456789 -', max_size=30),
)


def _fitting(space, optional):
    """The extras that leave a drawn space as it is to be read: beside
    --lens another --lens or --eps, beside --seifert another --seifert or
    the kind of labels it carries.  Each overrides its like, so none of
    them is a conflict; ``test_conflicting_flags_exit_2`` covers those."""
    keep = ("--lens", "--eps") if space[0] == "--lens" else ("--seifert", space[2])
    fitting = {id(_SPACE_FLAGS[name]) for name in keep}
    return [f for f in optional if id(f) in fitting]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    required, optional = _FLAGS[command]
    flags = [draw(f) for f in required if draw(st.integers(0, 19)) < 19]
    if optional:
        # nine in ten draws of extras beside a drawn space fit it, so that
        # those draws reach the computation instead of the conflict check
        if _space in required and flags and draw(st.integers(0, 9)) < 9:
            optional = _fitting(flags[0], optional)
        extras = draw(st.lists(st.sampled_from(optional), unique_by=id, max_size=4))
        flags += [draw(f) for f in extras]
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv += flag
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 9)) == 9:
        argv.insert(draw(st.integers(1, len(argv))), draw(_junk))
    if draw(st.integers(0, 49)) == 49:
        argv[0] = draw(_junk)
    return argv


_outcomes = {}


def _run_main(argv, stdin):
    # main is deterministic in argv and, with --graph, in stdin, so each
    # distinct input runs once; that keeps repeated draws of selftest cheap
    key = (tuple(argv), stdin if "--graph" in argv else None)
    if key not in _outcomes:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch("sys.stdin", io.StringIO(stdin)):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                rc = exc.code
        _outcomes[key] = rc, out.getvalue(), err.getvalue()
    return _outcomes[key]


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_argv(), _graph_doc)
@example(["plumbing", "--graph", "-"], _DEEP)
@example(["selftest"], "")
@example(["definite", "--delta", str(10**30)], "")
def test_exit_code_contract(argv, stdin):
    rc, out, err = _run_main(argv, stdin)
    assert rc in (0, 1, 2), (argv, rc)
    if rc == 1:
        assert argv[0] in _VERDICT_COMMANDS, argv
    if rc == 2:
        assert err.startswith(("error:", "usage:")), (argv, err)
