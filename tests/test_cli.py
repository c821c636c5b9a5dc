import json
import subprocess
import sys

import pytest

from levispherical.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_classify_d4_golden(capsys):
    doc = run_json(
        capsys, "classify", "--type", "D4", "--word", "3 2 3 4 2 1 2",
        "--levi", "2,3",
    )
    assert doc["spherical"] is False
    assert doc["type"] == "D4"
    assert doc["len_d"] == 4
    assert doc["support_d"] == [1, 2, 4]


def test_classify_e8_golden(capsys):
    doc = run_json(
        capsys, "classify", "--type", "E8",
        "--word", "2 3 4 2 3 4 5 4 2 3 1 4 5 6 7 6 8 7 6",
        "--levi", "2,3,4,5,7,8",
    )
    assert doc["spherical"] is True
    assert doc["d_word"] == [1, 6, 7, 8]
    assert doc["len_w"] == 19
    assert doc["len_w0I"] == 15


def test_classify_levi_descents_shorthand(capsys):
    word = "4 3 4 2 3 4 2 3 2 1 2 3 4"
    explicit = run_json(
        capsys, "classify", "--type", "F4", "--word", word, "--levi", "2,3,4"
    )
    shorthand = run_json(
        capsys, "classify", "--type", "F4", "--word", word, "--levi",
        "descents",
    )
    assert explicit == shorthand
    assert shorthand["spherical"] is True


def test_classify_empty_levi_is_toric_case(capsys):
    doc = run_json(capsys, "classify", "--type", "A2", "--word", "1 2")
    assert doc["levi"] == []
    assert doc["spherical"] is True


def test_toric_and_descents_commands(capsys):
    doc = run_json(capsys, "toric", "--type", "A2", "--word", "1 2 1")
    assert doc == {"type": "A2", "w_word": [1, 2, 1], "toric": False}
    doc = run_json(capsys, "toric", "--type", "A2", "--word", "2 1")
    assert doc["toric"] is True
    doc = run_json(
        capsys, "descents", "--type", "E8",
        "--word", "2 3 4 2 3 4 5 4 2 3 1 4 5 6 7 6 8 7 6",
    )
    assert doc["descents"] == [2, 3, 4, 5, 7, 8]


def test_demazure_a1_string(capsys):
    doc = run_json(
        capsys, "demazure", "--type", "A1", "--word", "1", "--weight", "2"
    )
    assert doc == [
        {"weight": [-2], "coeff": 1},
        {"weight": [0], "coeff": 1},
        {"weight": [2], "coeff": 1},
    ]


def test_demazure_rejects_non_dominant(capsys):
    code, out, err = run_cli(
        capsys, "demazure", "--type", "A2", "--word", "1", "--weight", "1 -1"
    )
    assert code == 1
    assert out == ""
    assert "not dominant" in err


def test_decompose_command(capsys):
    doc = run_json(
        capsys, "decompose", "--type", "A2", "--word", "1 2",
        "--weight", "1 1", "--levi", "1",
    )
    assert doc == [{"mu": [2, -1], "mult": 1}, {"mu": [1, 1], "mult": 1}]


def test_mf_check_counterexample(capsys):
    doc = run_json(
        capsys, "mf-check", "--type", "D4", "--word", "3 2 3 4 2 1 2",
        "--weight", "1 1 0 0", "--levi", "2 3",
    )
    assert doc["multiplicity_free"] is False
    assert doc["witness_mu"] == [0, 1, 1, -1]
    assert doc["multiplicity"] == 2


def test_witness_found(capsys):
    doc = run_json(
        capsys, "witness", "--type", "D4", "--word", "3 2 3 4 2 1 2",
        "--levi", "2 3", "--cap", "2",
    )
    assert doc == {
        "found": True,
        "lambda": [1, 1, 0, 0],
        "mu": [0, 1, 1, -1],
        "multiplicity": 2,
    }


def test_witness_not_found_is_budget_exit(capsys):
    code, out, err = run_cli(
        capsys, "witness", "--type", "F4",
        "--word", "4 3 4 2 3 4 2 3 2 1 2 3 4", "--levi", "descents",
        "--cap", "1",
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["found"] is False
    assert doc["coeff_cap"] == 1
    assert "inconclusive" in err


def test_census_stream_shape(capsys):
    code, out, err = run_cli(capsys, "census", "--type", "A2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 14  # 13 records + 1 summary
    records = [json.loads(line) for line in lines[:-1]]
    assert all(
        list(r) == ["type", "w", "len", "levi", "d", "spherical"]
        for r in records
    )
    summary = json.loads(lines[-1])
    assert summary["pair_count"] == 13
    assert summary["spherical_count"] == 12
    assert summary["group_order"] == 6


def test_census_bytes_are_reproducible(capsys):
    _, first, _ = run_cli(capsys, "census", "--type", "B2")
    _, second, _ = run_cli(capsys, "census", "--type", "B2")
    assert first == second


def test_census_battery_appends_report(capsys):
    code, out, err = run_cli(
        capsys, "census", "--type", "A2", "--battery", "fundamentals;rho"
    )
    assert code == 0
    lines = out.splitlines()
    report = json.loads(lines[-1])
    assert report["battery_size"] == 3
    assert report["spherical_checked"] == 12
    assert report["witness_found"] == 1
    summary = json.loads(lines[-2])
    assert summary["pair_count"] == 13
    # The cross-check reads the census stream and leaves its bytes alone.
    code, plain, err = run_cli(capsys, "census", "--type", "A2")
    assert code == 0
    assert lines[:-1] == plain.splitlines()


def test_census_out_file_diverts_records(capsys, tmp_path):
    target = tmp_path / "records.jsonl"
    code, out, err = run_cli(
        capsys, "census", "--type", "A2", "--out", str(target)
    )
    assert code == 0
    assert len(out.splitlines()) == 1  # summary only
    stored = target.read_text().splitlines()
    assert len(stored) == 13
    assert all(json.loads(line)["type"] == "A2" for line in stored)


def test_census_cap_exit(capsys):
    code, out, err = run_cli(capsys, "census", "--type", "B2", "--cap", "5")
    assert code == 3
    assert out == ""
    assert "budget exhausted" in err


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_census_cap_below_one_is_a_domain_error(capsys, tmp_path, cap):
    # Refused as bad input (exit 1), not as a spent budget, and before --out
    # is opened: the file keeps its bytes.
    target = tmp_path / "records.jsonl"
    target.write_text("kept\n")
    code, out, err = run_cli(
        capsys, "census", "--type", "A2", "--cap", cap, "--out", str(target)
    )
    assert (code, out) == (1, "")
    assert err == f"error: census cap {cap} is not a positive integer\n"
    assert target.read_text() == "kept\n"
    code, out, err = run_cli(capsys, "census", "--type", "A2", "--cap", "1")
    assert (code, out) == (3, "")
    assert "budget exhausted" in err


def test_census_rejects_bad_levi_mode(capsys):
    code, out, err = run_cli(capsys, "census", "--type", "A2", "--levi", "1,2")
    assert code == 1
    assert "must be 'all' or 'descents'" in err


@pytest.mark.parametrize("levi", ["", "  "])
def test_census_rejects_an_empty_levi_mode(capsys, levi):
    code, out, err = run_cli(capsys, "census", "--type", "A2", "--levi", levi)
    assert (code, out) == (1, "")
    assert "must be 'all' or 'descents'" in err


def test_domain_error_exit_codes(capsys):
    # Unknown Cartan type
    code, out, err = run_cli(
        capsys, "classify", "--type", "Z9", "--word", "1"
    )
    assert code == 1 and out == "" and "error:" in err
    # Word letter out of range
    code, out, err = run_cli(
        capsys, "classify", "--type", "A2", "--word", "1 5"
    )
    assert code == 1 and out == ""
    # Levi set outside the descent set
    code, out, err = run_cli(
        capsys, "classify", "--type", "A2", "--word", "1 2", "--levi", "2"
    )
    assert code == 1 and out == ""
    assert "descent" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--word", "1"])  # missing --type
    assert exc.value.code == 2
    capsys.readouterr()


def test_pretty_output_is_not_json(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--type", "D4", "--word", "3 2 3 4 2 1 2",
        "--levi", "2,3", "--pretty",
    )
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "spherical" in out
    code, out, err = run_cli(
        capsys, "demazure", "--type", "A1", "--word", "1", "--weight", "2",
        "--pretty",
    )
    assert out.strip().endswith("mass 3  terms 3")


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "levispherical", "classify", "--type", "F4",
         "--word", "2 1 4 3 2 1 3 2 4 3 2 1", "--levi", "2,4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["spherical"] is False
    assert doc["len_d"] == 10


def test_census_into_a_closed_pipe_exits_one_quietly():
    # census | head -1: the reader closes the pipe while the census, about
    # 1.6 MB of D5 records, is still writing.
    proc = subprocess.Popen(
        [sys.executable, "-m", "levispherical", "census", "--type", "D5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert json.loads(first)["type"] == "D5"
    assert err == b""


@pytest.mark.parametrize("word, levi", [("1 x", "1"), ("1", "1 x")])
def test_unparseable_index_list_is_a_domain_error(capsys, word, levi):
    code, out, err = run_cli(
        capsys, "classify", "--type", "A2", "--word", word, "--levi", levi
    )
    assert (code, out) == (1, "")
    assert err == "error: cannot parse index list from '1 x'\n"


@pytest.mark.parametrize(
    "flag, value", [("--weight", "1,,1"), ("--word", "1,,2"), ("--levi", "2,,")]
)
def test_empty_index_field_is_a_domain_error(capsys, flag, value):
    inputs = {"--word": "1", "--weight": "1 1", "--levi": "1"}
    inputs[flag] = value
    argv = [part for item in inputs.items() for part in item]
    code, out, err = run_cli(capsys, "decompose", "--type", "A2", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: cannot parse index list from {value!r}\n"


@pytest.mark.parametrize(
    "argv, value",
    [
        pytest.param(
            ["descents", "--type", "A50", "--word", "1_0"], "1_0", id="underscore"
        ),
        pytest.param(
            ["descents", "--type", "A3", "--word", "٣"], "٣", id="arabic-indic"
        ),
        pytest.param(
            ["descents", "--type", "A3", "--word", "１ 2"], "１ 2", id="fullwidth"
        ),
        pytest.param(
            ["demazure", "--type", "A2", "--word", "1", "--weight", "1_0 0"],
            "1_0 0",
            id="weight",
        ),
        pytest.param(
            ["classify", "--type", "A3", "--word", "1 2", "--levi", "٢"],
            "٢",
            id="levi",
        ),
    ],
)
def test_index_fields_are_ascii_decimal_integers(capsys, argv, value):
    # int() alone reads "1_0" as 10 and the Arabic-Indic or fullwidth digits
    # as 3, 1 and 2; each is a typo here, not another number.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: cannot parse index list from {value!r}\n"


@pytest.mark.parametrize(
    "word, letters",
    [("1 2", [1, 2]), ("1,2", [1, 2]), ("1, 2", [1, 2]), ("", []), ("+1 2", [1, 2])],
)
def test_index_lists_split_at_commas_or_whitespace(capsys, word, letters):
    doc = run_json(capsys, "descents", "--type", "A2", "--word", word)
    assert doc["w_word"] == letters


@pytest.mark.parametrize("command", ["demazure", "decompose", "mf-check"])
def test_weight_of_the_wrong_rank_is_a_domain_error(capsys, command):
    code, out, err = run_cli(
        capsys, command, "--type", "A2", "--word", "1", "--weight", "1 0 0"
    )
    assert (code, out) == (1, "")
    assert err == "error: weight '1 0 0' has 3 coordinates, expected 2\n"


def test_inputs_are_checked_type_word_weight_levi(capsys):
    # Each input is parsed only once the ones before it are valid.
    cases = [
        (("Z9", "1 x", "1", "9"), "unknown family"),
        (("A2", "1 x", "1", "9"), "cannot parse index list from '1 x'"),
        (("A2", "1 5", "1", "9"), "letter 5 at position 2"),
        (("A2", "1", "1", "9"), "has 1 coordinates"),
        (("A2", "1", "1 1", "9"), "out of range"),
    ]
    for (cartan, word, weight, levi), message in cases:
        code, out, err = run_cli(
            capsys, "decompose", "--type", cartan, "--word", word,
            "--weight", weight, "--levi", levi,
        )
        assert (code, out) == (1, ""), err
        assert message in err


def test_decompose_pretty_prints_one_entry_per_line(capsys):
    code, out, err = run_cli(
        capsys, "decompose", "--type", "A2", "--word", "1 2",
        "--weight", "1 1", "--levi", "1", "--pretty",
    )
    assert (code, err) == (0, "")
    assert out == "mu=[2, -1]  mult=1\nmu=[1, 1]  mult=1\n"
