"""Input validation, budget bounds and internal invariants."""

import ast
import enum
import json
from pathlib import Path

import pytest

from levispherical import (
    CharacterBudgetExceeded,
    WordLetterError,
    census_records,
    classify,
    classify_toric,
    cross_check,
    decompose_demazure,
    demazure_char,
    demazure_op,
    from_word,
    inverse,
    is_multiplicity_free,
    is_standard_coxeter,
    left_descents,
    length,
    levi_irreducible_char,
    longest_parabolic,
    multiply,
    reduced_word,
    simple_reflection,
    start_census,
    support,
    witness_search,
)
import levispherical
from levispherical import characters, rootsys
from levispherical.cli import main
from conftest import spec_of


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "target, call",
    [
        pytest.param("B2", lambda s, a: multiply(s, a, a), id="multiply"),
        pytest.param(
            "B2", lambda s, a: multiply(s, from_word(s, [1]), a), id="multiply-right"
        ),
        pytest.param("B2", inverse, id="inverse"),
        pytest.param("B2", length, id="length"),
        pytest.param("B2", reduced_word, id="reduced_word"),
        pytest.param("B2", support, id="support"),
        pytest.param("B2", left_descents, id="left_descents"),
        pytest.param("B2", is_standard_coxeter, id="is_standard_coxeter"),
        pytest.param("G2", lambda s, a: classify(s, a, [1]), id="classify-G2"),
        pytest.param("A3", lambda s, a: classify(s, a, [1]), id="classify-A3"),
        pytest.param("B2", lambda s, a: classify(s, a, []), id="classify-B2"),
        pytest.param("B2", classify_toric, id="classify_toric"),
        pytest.param(
            "B2", lambda s, a: demazure_char(s, (1, 1), a), id="demazure_char"
        ),
        pytest.param(
            "B2",
            lambda s, a: decompose_demazure(s, (1, 1), a, [1]),
            id="decompose_demazure",
        ),
        pytest.param(
            "B2",
            lambda s, a: is_multiplicity_free(s, (1, 1), a, [1]),
            id="is_multiplicity_free",
        ),
        pytest.param(
            "B2", lambda s, a: witness_search(s, a, [1]), id="witness_search"
        ),
    ],
)
def test_an_element_of_another_root_system_is_refused(target, call):
    # w0 of A2, handed to a function of another root system: each must
    # refuse it, not answer for it or report an internal fault.
    a = from_word(spec_of("A2"), [1, 2, 1])
    refusal = r"WeylElement\(A2, \(-1, -1\)\) is not in the Weyl group of"
    with pytest.raises(ValueError, match=refusal):
        call(spec_of(target), a)


def test_census_cap_refusal_keeps_out_file(capsys, tmp_path):
    target = tmp_path / "records.jsonl"
    target.write_text("earlier records\n")
    code, out, err = run_cli(capsys, "census", "--type", "E7", "--out", str(target))
    assert code == 3
    assert "budget exhausted" in err
    assert target.read_text() == "earlier records\n"


def test_booleans_are_not_integers():
    a2 = spec_of("A2")
    with pytest.raises(WordLetterError, match="position 2"):
        from_word(a2, [1, True])
    with pytest.raises(ValueError, match="node indices"):
        classify(a2, from_word(a2, [1]), [True])
    with pytest.raises(ValueError, match="integer vector"):
        demazure_char(a2, (True, 0), from_word(a2, [1]))
    char = demazure_char(a2, (1, 0), from_word(a2, []))
    with pytest.raises(ValueError, match="node index"):
        demazure_op(a2, char, True)
    with pytest.raises(ValueError, match="node index"):
        rootsys.simple_root_in_weight_basis(a2, True)


def test_indices_that_are_not_ints_are_named_so():
    # A value that is not an int is not "out of range"; ints outside 1..rank
    # still are.
    a2 = spec_of("A2")
    char = demazure_char(a2, (1, 0), from_word(a2, [1]))
    for call, error, message in [
        (lambda: longest_parabolic(a2, "1"), ValueError,
         "node indices ['1']: '1' is not an int"),
        (lambda: classify(a2, from_word(a2, [1]), {1.0}), ValueError,
         "node indices [1.0]: 1.0 is not an int"),
        (lambda: from_word(a2, "12"), WordLetterError,
         "word '12' is not a sequence of letters"),
        (lambda: from_word(a2, ["1", "2"]), WordLetterError,
         "letter '1' at position 1 is not an int"),
        (lambda: demazure_op(a2, char, "1"), ValueError,
         "node index '1' is not an int"),
        (lambda: simple_reflection(a2, "1"), WordLetterError,
         "generator index '1' is not an int"),
        (lambda: longest_parabolic(a2, [3]), ValueError,
         "node indices [3] out of range 1..2 for A2"),
        (lambda: from_word(a2, [1, 3]), WordLetterError,
         "letter 3 at position 2 out of range 1..2"),
        (lambda: demazure_op(a2, char, 3), ValueError,
         "node index 3 out of range 1..2"),
    ]:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize(
    "battery,reason",
    [("", "names no weight"), (";", "names no weight"), ("1 -1", "not dominant")],
)
def test_census_battery_refused_before_any_output(capsys, tmp_path, battery, reason):
    # A battery that names no weight would check nothing; a non-dominant one
    # would fail at the first spherical record.  Both are refused up front.
    target = tmp_path / "records.jsonl"
    target.write_text("earlier records\n")
    for out in ([], ["--out", str(target)]):
        code, stdout, err = run_cli(
            capsys, "census", "--type", "A2", "--battery", battery, *out
        )
        assert code == 1 and stdout == ""
        assert err.startswith("error:") and reason in err
    assert target.read_text() == "earlier records\n"


def test_cross_check_rejects_sample_rate_outside_unit_interval():
    a2 = spec_of("A2")
    for rate in (-3.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="sample rate"):
            cross_check(a2, [], [(1, 1)], sample=rate)


@pytest.mark.parametrize("rate", [True, False], ids=["True", "False"])
def test_cross_check_rejects_a_bool_sample_rate(rate):
    # True == 1 would pass the range test and be reported as "true".
    a2 = spec_of("A2")
    with pytest.raises(ValueError, match=f"sample rate {rate} is not a real"):
        cross_check(a2, [], [(1, 1)], sample=rate)


@pytest.mark.parametrize("rate", ["0.5", 0.5j, [0.5]])
def test_cross_check_rejects_a_sample_rate_that_is_not_real(rate):
    a2 = spec_of("A2")
    with pytest.raises(ValueError, match="sample rate .* is not a real"):
        cross_check(a2, [], [(1, 1)], sample=rate)


def test_census_that_samples_no_record_exits_one(capsys, tmp_path):
    # The records are written as they stream; the refusal comes at the end
    # of the stream, so no summary or report follows them.
    argv = ["census", "--type", "A2", "--battery", "rho", "--sample", "1e-9"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 13 and all('"spherical"' in line for line in lines)
    assert err == (
        "error: cross-check sampled none of 13 records at rate 1e-09; "
        "nothing was checked\n"
    )
    target = tmp_path / "records.jsonl"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (1, "")
    assert target.read_text().splitlines() == lines


def test_census_negative_sample_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "census", "--type", "A2", "--battery", "rho", "--sample", "-3"
    )
    assert code == 1
    assert "sample rate" in err


def test_census_bad_sample_refused_before_any_output(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "census", "--type", "A2", "--battery", "rho", "--sample", "-3"
    )
    assert code == 1 and out == ""
    target = tmp_path / "records.jsonl"
    target.write_text("earlier records\n")
    code, out, err = run_cli(
        capsys, "census", "--type", "A2", "--battery", "rho", "--sample", "1.5",
        "--out", str(target),
    )
    assert code == 1 and out == ""
    assert "sample rate" in err
    assert target.read_text() == "earlier records\n"


@pytest.mark.parametrize(
    "command, extra",
    [("demazure", ()), ("decompose", ("--levi", "2 3")), ("mf-check", ("--levi", "2 3"))],
)
def test_character_commands_respect_term_ceiling(capsys, monkeypatch, command, extra):
    monkeypatch.setattr(characters, "DEFAULT_TERM_CEILING", 10)
    code, out, err = run_cli(
        capsys, command, "--type", "D4", "--word", "3 2 3 4 2 1 2",
        "--weight", "1 1 1 1", *extra,
    )
    assert code == 3 and out == ""
    assert "budget exhausted" in err


def test_witness_command_respects_term_ceiling(capsys, monkeypatch):
    # At 10 terms 54 of the 80 lambda are skipped, the witness (1, 1, 0, 0)
    # among them, so the search that finds a witness under the default
    # ceiling ends without a verdict, and says how many it skipped.
    monkeypatch.setattr(characters, "DEFAULT_TERM_CEILING", 10)
    code, out, err = run_cli(
        capsys, "witness", "--type", "D4", "--word", "3 2 3 4 2 1 2",
        "--levi", "2 3",
    )
    assert code == 3 and out == ""
    assert err == (
        "budget exhausted: witness search inconclusive: 54 of 80 weights "
        "lambda passed the 10-term ceiling\n"
    )


def test_one_term_ceiling_and_lambda_budget_bound_every_character_path(monkeypatch):
    # The D4 example: witness_search finds lambda = (1, 1, 0, 0) and the
    # Demazure character of (1, 1, 1, 1) has 183 terms under the defaults.
    d4 = spec_of("D4")
    w = from_word(d4, [3, 2, 3, 4, 2, 1, 2])
    lam = (1, 1, 1, 1)
    char = demazure_char(d4, lam, w)
    assert len(char) == 183
    assert witness_search(d4, w, (2, 3)).lam == (1, 1, 0, 0)
    (rec,) = [
        r for r in census_records(d4, start_census(d4))
        if r.w_word == reduced_word(d4, w) and r.levi == (2, 3)
    ]
    assert not rec.spherical
    monkeypatch.setattr(characters, "DEFAULT_TERM_CEILING", 10)
    with pytest.raises(CharacterBudgetExceeded):
        demazure_char(d4, lam, w)
    # Over I = {2, 3} the irreducible of lam has only 7 weights; over the
    # whole node set it passes the ceiling.
    with pytest.raises(CharacterBudgetExceeded):
        levi_irreducible_char(d4, lam, (1, 2, 3, 4))
    with pytest.raises(CharacterBudgetExceeded):
        is_multiplicity_free(d4, lam, w, (2, 3))
    # pi_2 on the 183-term character touches more than 10 weights.
    with pytest.raises(CharacterBudgetExceeded):
        demazure_op(d4, char, 2)
    # A search that skipped a lambda and found no witness says so; it does
    # not return the None of a search that tried every lambda.
    with pytest.raises(CharacterBudgetExceeded, match="54 of 80 weights lambda"):
        witness_search(d4, w, (2, 3))
    with pytest.raises(CharacterBudgetExceeded, match="54 of 80 weights lambda"):
        cross_check(d4, [rec], [lam], sample=1.0)
    monkeypatch.undo()
    monkeypatch.setattr(characters, "DEFAULT_LAMBDA_BUDGET", 1)
    assert witness_search(d4, w, (2, 3)) is None


def test_a_skipped_lambda_hides_no_witness_and_is_counted():
    # lambda skipped before the first witness (1, 1, 0, 0) do not hide it;
    # a search that skips every lambda past grade 1 finds no witness among
    # the 4 it tries, and names its 76 skips.
    d4 = spec_of("D4")
    multiplicities = characters._levi_straightener(
        d4, from_word(d4, [3, 2, 3, 4, 2, 1, 2]), (2, 3)
    )

    def skipping(skip):
        def straightener(lam):
            if skip(lam):
                raise CharacterBudgetExceeded("skipped")
            return multiplicities(lam)

        return straightener

    early = skipping(lambda lam: lam in {(0, 0, 0, 1), (0, 2, 0, 0)})
    found = characters._first_witness(early, 4, 2)
    assert found == characters.Witness((1, 1, 0, 0), (0, 1, 1, -1), 2)
    late = skipping(lambda lam: sum(lam) >= 2)
    with pytest.raises(CharacterBudgetExceeded, match="^witness search .*: 76 of 80 "):
        characters._first_witness(late, 4, 2)


def _a2_records(a2):
    return list(census_records(a2, start_census(a2)))


# Stand-ins for ordered input that carry no order a caller wrote, or that a
# single read uses up: each one would be read in its iteration order.
_UNORDERED = {
    "set": set,
    "frozenset": frozenset,
    "dict": dict.fromkeys,
    "generator": lambda items: (x for x in items),
}

# Each takes A2 and a form from _UNORDERED, applied to the ordered input.
_ORDERED_INPUT = {
    "from_word": lambda a2, form: from_word(a2, form((2, 1))),
    "demazure_char": lambda a2, form: demazure_char(
        a2, form((2, 0)), from_word(a2, [1, 2, 1])
    ),
    "levi_irreducible_char": lambda a2, form: levi_irreducible_char(
        a2, form((2, 0)), [1]
    ),
    "reflect_weight": lambda a2, form: characters.reflect_weight(a2, form((2, 0)), 1),
    "decompose_demazure": lambda a2, form: decompose_demazure(
        a2, form((2, 0)), from_word(a2, [1, 2, 1]), [1, 2]
    ),
    "is_multiplicity_free": lambda a2, form: is_multiplicity_free(
        a2, form((2, 0)), from_word(a2, [1, 2, 1]), [1, 2]
    ),
    "monomial": lambda a2, form: characters.WeightPoly.monomial(form((2, 0))),
    "coeff": lambda a2, form: characters.WeightPoly({(2, 0): 1}).coeff(
        form((2, 0))
    ),
    "battery": lambda a2, form: cross_check(
        a2, _a2_records(a2), form(((1, 1), (2, 0)))
    ),
    "battery-weight": lambda a2, form: cross_check(
        a2, _a2_records(a2), [(1, 1), form((2, 0))]
    ),
}


@pytest.mark.parametrize(
    "call,form",
    [
        (call, form)
        for call in _ORDERED_INPUT.values()
        for form in _UNORDERED.values()
    ]
    + [
        (lambda a2, key: demazure_op(a2, characters.WeightPoly({key: 1}), 1),
         frozenset((2, 0))),
        (lambda a2, key: characters.decompose_levi(
            a2, characters.WeightPoly({key: 1}), ()),
         frozenset((2, 0))),
    ],
    ids=[f"{name}-{kind}" for name in _ORDERED_INPUT for kind in _UNORDERED]
    + ["demazure_op-frozenset-key", "decompose_levi-frozenset-key"],
)
def test_ordered_input_is_exactly_a_list_or_tuple(call, form):
    # A word, a weight and a battery are read in order, so only a list or
    # a tuple is taken; any other iterable is refused, not read in its
    # iteration order ({2, 0} would be the weight (0, 2)).
    with pytest.raises(ValueError) as info:
        call(spec_of("A2"), form)
    if call is _ORDERED_INPUT["from_word"]:
        assert type(info.value) is WordLetterError


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_census_unopenable_out_exits_one(capsys, tmp_path, where):
    # FileNotFoundError and IsADirectoryError end as an error line, not a
    # traceback.
    if where == "directory":
        target = tmp_path
    else:
        target = tmp_path / "missing" / "records.jsonl"
    code, out, err = run_cli(capsys, "census", "--type", "A2", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error:") and str(target) in err


def test_witness_search_rejects_empty_budgets():
    d4 = spec_of("D4")
    w = from_word(d4, [3, 2, 3, 4, 2, 1, 2])
    for cap in (-1, 0, True, 1.5, "1"):
        with pytest.raises(ValueError, match="coefficient cap"):
            witness_search(d4, w, (2, 3), cap)


def test_witness_negative_cap_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "witness", "--type", "D4", "--word", "3 2 3 4 2 1 2",
        "--levi", "2 3", "--cap", "-1",
    )
    assert code == 1 and out == ""
    assert "coefficient cap" in err


def test_witness_cap_zero_exits_one(capsys):
    # A cap of 0 holds only lambda = 0, which is never a witness: a search
    # that tries nothing is refused, not reported as inconclusive.
    code, out, err = run_cli(
        capsys, "witness", "--type", "A2", "--word", "1 2 1", "--levi", "1",
        "--cap", "0",
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: witness coefficient cap 0 holds only lambda = 0, never a witness\n"
    )


@pytest.mark.parametrize(
    "call, error, name",
    [
        pytest.param(
            lambda s: classify(s, from_word(s, [1]), 1), ValueError, "node set 1",
            id="classify",
        ),
        pytest.param(
            lambda s: longest_parabolic(s, 2), ValueError, "node set 2",
            id="longest_parabolic",
        ),
        pytest.param(
            lambda s: levi_irreducible_char(s, (1, 0), 1), ValueError, "node set 1",
            id="levi_irreducible_char",
        ),
        pytest.param(
            lambda s: from_word(s, 5), WordLetterError, "word 5", id="from_word"
        ),
    ],
)
def test_a_non_iterable_node_set_or_word_is_refused(call, error, name):
    with pytest.raises(error, match=f"^{name} is not"):
        call(spec_of("A2"))


def test_rank_past_the_bound_exits_one(capsys):
    code, out, err = run_cli(capsys, "classify", "--type", "A51", "--word", "1")
    assert (code, out) == (1, "")
    assert err == "error: rank 51 out of range for family A\n"


def test_root_count_invariant_raises(monkeypatch):
    monkeypatch.setattr(rootsys, "_positive_root_count", lambda ct: 0)
    with pytest.raises(RuntimeError, match="positive roots"):
        rootsys._build.__wrapped__(rootsys.CartanType("A", 2))


def test_levi_top_coefficient_invariant_raises(monkeypatch):
    monkeypatch.setattr(characters, "_orbit_char", lambda lay, point, head: {})
    with pytest.raises(RuntimeError, match="top coefficient"):
        levi_irreducible_char(spec_of("A2"), (1, 0), (1,))


def test_census_sample_without_battery_is_refused(capsys, tmp_path):
    code, out, err = run_cli(capsys, "census", "--type", "A2", "--sample", "0.5")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--battery" in err
    target = tmp_path / "records.jsonl"
    target.write_text("earlier records\n")
    code, out, err = run_cli(
        capsys, "census", "--type", "A2", "--sample", "0.5", "--out", str(target)
    )
    assert code == 1 and out == ""
    assert target.read_text() == "earlier records\n"


def test_census_zero_sample_is_refused(capsys, tmp_path):
    # A cross-check at rate 0 would check no record and still pass.
    target = tmp_path / "records.jsonl"
    target.write_text("earlier records\n")
    code, out, err = run_cli(
        capsys, "census", "--type", "A2", "--battery", "rho", "--sample", "0",
        "--out", str(target),
    )
    assert code == 1 and out == ""
    assert "sample rate" in err
    assert target.read_text() == "earlier records\n"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so invariants must raise instead.
    sources = sorted(Path(levispherical.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_only_what_it_uses():
    # __init__.py imports to re-export; "# noqa: F401" marks a name kept on
    # purpose for code outside the package.
    sources = sorted(Path(levispherical.__file__).parent.glob("*.py"))
    assert sources
    unused = []
    for path in sources:
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__" or any(
                "# noqa: F401" in line
                for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_cli_uses_only_public_library_names():
    # The CLI is a shell over the public API: it imports no underscore name
    # from the package and reads no underscore attribute of a module.
    path = Path(levispherical.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    modules = set()
    private = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                modules.add(alias.asname or alias.name.partition(".")[0])
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("levispherical")
            ):
                private += [
                    f"cli.py:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            private.append(f"cli.py:{node.lineno} {node.value.id}.{node.attr}")
    assert private == []


@pytest.mark.parametrize(
    "bad",
    [(0, 1), (0, 0, 0, 0), (0, 0.5, 0), (0, 0, True)],
    ids=["too-short", "too-long", "float", "bool"],
)
def test_character_operations_reject_malformed_weights(bad):
    # Unchecked, each of these keys would flow into the output: a short or
    # long one next to rank-3 weights, a float or bool one as a coordinate.
    b3 = spec_of("B3")
    poly = characters.WeightPoly({(1, 0, 0): 1, bad: 1})
    with pytest.raises(ValueError, match="integer vector"):
        demazure_op(b3, poly, 1)
    with pytest.raises(ValueError, match="integer vector"):
        characters.decompose_levi(b3, characters.WeightPoly({bad: 1}), [1])
    # A bad key after many good ones is still found, and named.
    good = {(k, -k, 0): 1 for k in range(1000)}
    poly = characters.WeightPoly({**good, bad: 1})
    for op in (
        lambda: demazure_op(b3, poly, 1),
        lambda: characters.decompose_levi(b3, poly, ()),
    ):
        with pytest.raises(ValueError, match="integer vector") as exc:
            op()
        assert repr(bad) in str(exc.value)


def test_character_operations_accept_int_enum_coordinates():
    # An int subclass other than bool is an integer coordinate.
    class Coord(enum.IntEnum):
        ZERO = 0
        ONE = 1

    a2 = spec_of("A2")
    top = characters.WeightPoly({(Coord.ONE, Coord.ZERO): 1})
    char = characters.WeightPoly({(Coord.ONE, Coord.ZERO): 1, (-1, Coord.ONE): 1})
    assert demazure_op(a2, top, 1) == char
    assert characters.decompose_levi(a2, char, (1,)) == (((1, 0), 1),)
    assert characters.decompose_levi(a2, top, ()) == (((1, 0), 1),)


@pytest.mark.parametrize(
    "call",
    [
        lambda a2: demazure_char(a2, 5, from_word(a2, [1, 2])),
        lambda a2: characters.decompose_levi(a2, characters.WeightPoly({5: 1}), ()),
        lambda a2: characters.reflect_weight(a2, 5, 1),
        lambda a2: levi_irreducible_char(a2, 5, [1]),
    ],
    ids=["demazure_char", "decompose_levi", "reflect_weight", "levi_irreducible_char"],
)
def test_non_iterable_weight_is_a_value_error(call):
    # A bare int is not a weight: the usual ValueError, not a TypeError
    # from iterating it.
    with pytest.raises(ValueError, match="weight 5 is not an integer vector of rank 2"):
        call(spec_of("A2"))
