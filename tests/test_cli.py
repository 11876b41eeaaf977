import json
from fractions import Fraction
from math import comb, prod
from pathlib import Path

import pytest

from nakamura import bounds, games
from nakamura.cli import main
from nakamura.gamefiles import parse_game
from nakamura.games import CapacityError, maximal_losing

EX2 = "weighted\nquota: 90\nweights: 9 9 9 9 9 9 9 9 9 9 2 2 2 2 1 1\n"
VETO = "weighted\nquota: 3\nweights: 2 1 1\n"
COMPLETE = "complete\nclasses: 10 10\nrow: 7 8\n"
VECTORS4 = "weighted\nquota: 3\nweights: 2 1 1 1\n"
CSP = "csp\nstock: 155\nlengths: 9 12 12 16 16 46 46 54 69 77 102\n"

TABLE_1_TO_6 = """n,inf,2,3,4,5,6
1,1,0,0,0,0,0
2,2,1,0,0,0,0
3,4,2,1,0,0,0
4,8,5,1,1,0,0
5,16,9,4,1,1,0
6,32,19,8,2,1,1"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_json(tmp_path, capsys):
    path = write(tmp_path, "ex2.game", EX2)
    code, out = run(capsys, "analyze", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["nakamura"]["value"] == "11"
    methods = {b["method"]: b for b in report["bounds"]}
    assert methods["weighted"]["lower"] == "10"
    assert methods["weighted"]["upper"] == "50"
    assert methods["greedy"]["upper"] == "11"
    assert methods["lp_quota"]["lower"] == "11"
    assert report["lp"]["max_quota"] == "10/11"
    assert report["classification"]["vetoers"] == []
    assert report["flags"]["proper"] and not report["flags"]["strong"]


def test_analyze_json_bit_stable(tmp_path, capsys):
    path = write(tmp_path, "ex2.game", EX2)
    _, first = run(capsys, "analyze", path, "--json")
    _, second = run(capsys, "analyze", path, "--json")
    assert first == second


def test_analyze_complete_file(tmp_path, capsys):
    path = write(tmp_path, "c.game", COMPLETE)
    code, out = run(capsys, "analyze", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["nakamura"]["value"] == "4"
    assert report["input"]["classes"] == [10, 10]


def test_analyze_vetoer(tmp_path, capsys):
    path = write(tmp_path, "veto.game", VETO)
    code, out = run(capsys, "analyze", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["nakamura"]["value"] == "inf"
    assert report["classification"]["vetoers"] == [1]


# Byte-exact stdout pinned per game file in tests/golden: <name>.game is the
# input, <name>.<command>.<ext> the expected output.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RUNS = [
    ("ex2", "analyze"),
    ("complete", "analyze"),
    ("veto", "analyze"),
    ("csp", "analyze"),
    ("simple3", "analyze"),
    ("distinct8", "analyze"),  # alpha-roughly bound printed
    ("wide18", "analyze"),  # weighted, 3,103 coalitions over 6 vectors: alpha printed
    ("generic15", "analyze"),  # simple game given only by its antichain
    ("groups19", "analyze"),  # weighted, four equal-weight groups: alpha printed
    ("cover11", "nakamura"),  # weighted, settled on its weights
    ("complete", "nakamura"),  # complete, four (7, 8) rows: the prefix witness
    ("prefix14", "nakamura"),  # complete, prefix program: greedy meets the root bound
    ("generic15", "nakamura"),  # simple game, 2,116 coalitions: vectors
    ("wide18", "nakamura"),  # weighted, 3,103 coalitions: weights settle
    ("dense20", "nakamura"),  # weighted, 31,473 coalitions: weights settle
    ("search11", "nakamura"),  # weighted, cover search from the quota ceiling
    ("search18", "nakamura"),  # weighted, vectors search from the quota ceiling
    ("csp", "csp-check"),
    ("csp24", "csp-check"),  # 24 items of three lengths: no pattern is listed
    ("csp", "conjectures"),  # with the instance's round-up section
    ("complete", "conjectures"),
    ("veto", "conjectures"),  # a vetoer: z_C infinite
]
GOLDEN_ARGS = {
    "analyze": (("--json",), "json"),
    "nakamura": (("--witness",), "txt"),
    "csp-check": ((), "json"),
    "conjectures": ((), "json"),
}


@pytest.mark.parametrize("name,command", GOLDEN_RUNS)
def test_golden_output(name, command, capsys):
    flags, ext = GOLDEN_ARGS[command]
    expected = (GOLDEN / f"{name}.{command}.{ext}").read_bytes().decode()
    code, out = run(capsys, command, str(GOLDEN / f"{name}.game"), *flags)
    assert code == 0
    assert out == expected


# the benchmark's census workload checks each command's stdout against the
# text recorded under that command in bench/expected.json
BENCH_EXPECTED = json.loads(
    (Path(__file__).parent.parent / "bench" / "expected.json").read_text()
)


@pytest.mark.parametrize(
    "command", [k for k in BENCH_EXPECTED if k != "games_per_pass"]
)
def test_bench_census_commands_print_the_recorded_text(command, capsys):
    assert run(capsys, *command.split()) == (0, BENCH_EXPECTED[command])


def test_nakamura_witness(tmp_path, capsys):
    path = write(tmp_path, "m.game", "weighted\nquota: 2\nweights: 1 1 1\n")
    code, out = run(capsys, "nakamura", path, "--witness")
    assert code == 0
    assert out.splitlines() == ["3", "1 2", "1 3", "2 3"]


def test_nakamura_infinite(tmp_path, capsys):
    path = write(tmp_path, "v.game", VETO)
    code, out = run(capsys, "nakamura", path, "--witness")
    assert code == 0
    assert out.strip() == "inf"


def test_bounds_table(tmp_path, capsys):
    path = write(tmp_path, "ex2.game", EX2)
    code, out = run(capsys, "bounds", path)
    assert code == 0
    assert "weighted" in out and "lp_quota" in out and "heuristic" in out


def test_census_csv_matches_table(capsys):
    code, out = run(capsys, "census", "1", "6", "complete_r1")
    assert code == 0
    assert out.strip() == TABLE_1_TO_6


def test_census_row10_first_column(capsys):
    code, out = run(capsys, "census", "10", "10", "complete_r1")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "10" and row[1] == "512"


def test_census_json(capsys):
    code, out = run(capsys, "census", "5", "5", "complete_r1", "--json")
    payload = json.loads(out)
    # the printed key order, not only the dict: inf first, then ascending
    assert list(payload[0]["counts"].items()) == [
        ("inf", 16), ("2", 9), ("3", 4), ("4", 1), ("5", 1),
    ]


@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["csv", "json"])
def test_census_out_writes_the_printed_text(fmt, tmp_path, capsys):
    code, printed = run(capsys, "census", "1", "7", "weighted_r1", *fmt)
    assert code == 0
    out_path = tmp_path / "census.txt"
    code, out = run(
        capsys, "census", "1", "7", "weighted_r1", *fmt, "--out", str(out_path)
    )
    assert (code, out) == (0, "")
    assert out_path.read_text() == printed


def test_census_has_no_shard_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "7", "7", "complete_r1", "--shards", "3"])
    assert exc.value.code == 2
    assert "--shards" in capsys.readouterr().err


def test_census_cap_exit_code(capsys):
    assert main(["census", "17", "17", "complete_r1"]) == 3
    capsys.readouterr()


def test_census_range_over_the_cap_fails_before_counting(monkeypatch, capsys):
    import importlib

    def refuse(*args, **kwargs):
        raise AssertionError("counted before the cap was checked")

    module = importlib.import_module("nakamura.census")
    monkeypatch.setattr(module, "_weighted_r1_counts", refuse)
    assert main(["census", "1", "17", "weighted_r1"]) == 3
    assert capsys.readouterr() == (
        "",
        "capacity error: census for n=17 exceeds the configured cap of 16\n",
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "1", "3", "complete_r1"],
        ["family", "nearmax-1", "--n", "5"],
    ],
    ids=["census", "family"],
)
@pytest.mark.parametrize(
    "target, reason",
    [(".", "Is a directory"), ("missing/out.txt", "No such file or directory")],
    ids=["directory", "missing-directory"],
)
def test_out_path_that_cannot_be_written_exit_code(
    argv, target, reason, tmp_path, capsys
):
    path = str(tmp_path / target)
    assert main([*argv, "--out", path]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {path}: {reason}\n"


def test_census_reversed_range_exit_code(capsys):
    assert main(["census", "4", "2", "complete_r1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "nmin 4 exceeds nmax 2" in err


def test_census_zero_players_exit_code(capsys):
    assert main(["census", "0", "2", "complete_r1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: n must be positive\n"


def test_family_command(tmp_path, capsys):
    out_path = tmp_path / "family.game"
    code, out = run(
        capsys, "family", "nearmax-1", "--n", "5", "--out", str(out_path)
    )
    assert code == 0
    assert "quota: 6" in out
    assert "# nakamura: 4" in out
    from nakamura.gamefiles import parse_game
    from nakamura.games import WeightedRep

    rep = parse_game(out_path.read_text())
    assert rep == WeightedRep(6, (2, 2, 2, 1, 1))


def test_family_padding(capsys):
    code, out = run(
        capsys, "family", "unit-padding",
        "--weights", "2,1", "--qbar", "1/2", "--r", "8",
    )
    assert code == 0
    assert "# quota ceiling: 3" in out
    assert "# ceiling attained: True" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nearmax-5", "--n", "4", "--k", "3"], "2 <= k <= n - 2"),
        (["nearmax-1"], "family nearmax-1 needs --n"),
        (["circle", "--n", "8"], "family circle needs --t"),
        (["replica", "--weights", "2,1", "--qbar", "1/0", "--r", "3"], "--qbar"),
        (
            ["unit-padding", "--weights", "1", "--qbar", "99/100", "--r", "1"],
            "unit-padding needs qbar <= 1/2",
        ),
        (
            ["replica", "--weights", "1,1", "--qbar", "9/10", "--r", "1"],
            "replica needs qbar <= 1/2",
        ),
    ],
    ids=[
        "k-out-of-range", "missing-n", "missing-t", "qbar-over-zero",
        "unit-padding-quota-at-total", "replica-quota-at-total",
    ],
)
def test_family_bad_params_exit_code(capsys, argv, message):
    assert main(["family", *argv]) == 2
    assert message in capsys.readouterr().err


def test_csp_check(tmp_path, capsys):
    path = write(tmp_path, "i.csp", CSP)
    code, out = run(capsys, "csp-check", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["nakamura"] == "4"
    assert payload["bounds"]["lower"] == "3"
    assert payload["z_b_game_patterns"] == "4"
    assert payload["instance_roundup"]["irup"] is False
    assert payload["instance_roundup"]["mirup"] is True


def test_csp_check_item_longer_than_stock_exit_code(tmp_path, capsys):
    path = write(tmp_path, "long.csp", "csp\nstock: 5\nlengths: 3 7\n")
    assert main(["csp-check", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: item 2 is longer than the stock\n"


def test_csp_check_lists_no_patterns(tmp_path, capsys):
    # 25 items: more than the 24 that listing every pattern as a mask
    # could take
    lengths = " ".join(["7"] * 9 + ["5"] * 8 + ["3"] * 8)
    path = write(tmp_path, "i25.csp", f"csp\nstock: 20\nlengths: {lengths}\n")
    code, out = run(capsys, "csp-check", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["nakamura"] == payload["instance_roundup"]["z_b"] == "7"
    assert payload["z_c_game_patterns"] == payload["instance_roundup"]["z_c"]


def test_maxnak(capsys):
    code, out = run(capsys, "maxnak", "5", "2", "T")
    assert code == 0
    assert out.startswith("4 (exact maximum)")


def test_maxnak_six_player_simple_games_are_exhaustive(capsys):
    # vetoer-free simple games on six players with five classes exist, and
    # the exhaustive search finds their maximum
    code, out = run(capsys, "maxnak", "6", "5", "S")
    assert code == 0
    assert out.splitlines()[:2] == ["4 (exact maximum)", "simple"]


@pytest.mark.parametrize(
    "args,expected",
    [
        pytest.param(
            "5 3 S",
            "4 (exact maximum)\nsimple\nplayers: 5\n"
            "1 2 3\n1 2 4\n1 3 4\n2 3 4 5\n",
            id="5-3-S",
        ),
        pytest.param(
            "6 3 T",
            "5 (exact maximum)\ncomplete\nclasses: 1 4 1\n"
            "row: 1 3 0\nrow: 0 4 1\n",
            id="6-3-T",
        ),
    ],
)
def test_maxnak_prints_the_first_witness(args, expected, capsys):
    # the witness is the first game, in enumeration order, to reach the
    # maximum
    assert run(capsys, "maxnak", *args.split()) == (0, expected)


@pytest.mark.parametrize(
    "args,kind",
    [
        # no catalog construction for t = 5
        pytest.param("8 5 T", "construction lower bound", id="8-5-T"),
        pytest.param("8 5 C", "construction lower bound", id="8-5-C"),
        # every game has a vetoer
        pytest.param("3 3 S", "exact maximum", id="3-3-S"),
        pytest.param("4 4 C", "exact maximum", id="4-4-C"),
        pytest.param("4 4 T", "exact maximum", id="4-4-T"),
    ],
)
def test_maxnak_no_game_prints_none(args, kind, capsys):
    code, out = run(capsys, "maxnak", *args.split())
    assert code == 0
    assert out == f"none ({kind})\n"


@pytest.mark.parametrize("args", ["0 0 S", "-1 1 T"])
def test_maxnak_nonpositive_n_exit_code(args, capsys):
    assert main(["maxnak", *args.split()]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: n must be positive\n"


# 30 players, four distinct weights: 51,134,417 minimal winning coalitions
# over 144 minimal winning vectors
THIRTY = "weighted\nquota: 40\nweights: " + " ".join(
    ["5"] * 6 + ["3"] * 8 + ["2"] * 6 + ["1"] * 10
) + "\n"


@pytest.mark.parametrize(
    "argv", [("analyze", "--json"), ("nakamura", "--witness")], ids=lambda a: a[0]
)
def test_thirty_player_game_reads_only_the_view(argv, tmp_path, capsys, monkeypatch):
    # a weighted game's antichain is expanded only by readers that need its
    # coalitions, and none does here
    expand = games.masks_with_vectors

    def capped(blocks, vectors):
        vectors = list(vectors)
        count = sum(prod(map(comb, map(len, blocks), v)) for v in vectors)
        assert count <= 2000, f"expanding {count} coalitions"
        return expand(blocks, vectors)

    monkeypatch.setattr(games, "masks_with_vectors", capped)
    path = write(tmp_path, "thirty.game", THIRTY)
    code, out = run(capsys, argv[0], path, argv[1])
    assert code == 0
    if argv[0] == "nakamura":
        lines = out.splitlines()
        assert lines[0] == "3" and len(lines) == 4
        return
    report = json.loads(out)
    assert report["nakamura"]["value"] == "3"
    assert len(report["nakamura"]["witness"]) == 3
    assert report["game"]["min_winning_count"] == 51134417
    methods = {b["method"]: b for b in report["bounds"]}
    assert (methods["weighted"]["lower"], methods["weighted"]["upper"]) == ("3", "3")
    # the critical LP runs on the view's vectors
    rough = methods["alpha_roughly"]
    assert (rough["lower"], rough["upper"], rough["alpha"]) == ("3", "3", "39/40")


@pytest.mark.parametrize("cap,printed", [(4, True), (3, False)])
def test_critical_lp_vector_cap(cap, printed, tmp_path, capsys, monkeypatch):
    # [3; 2 1 1 1]: two winning and two losing vectors on its view
    game = games.game_from_weighted(parse_game(VECTORS4))
    assert len(game.view.winning) + len(game.view.losing) == 4
    monkeypatch.setattr(bounds, "_ALPHA_ROW_CAP", cap)
    if printed:
        assert bounds.critical_rough_representation(game)[0] == Fraction(2, 3)
    else:
        with pytest.raises(CapacityError, match="over 4 vectors exceeds 3"):
            bounds.critical_rough_representation(game)
    code, out = run(capsys, "analyze", write(tmp_path, "g.game", VECTORS4), "--json")
    assert code == 0
    methods = [b["method"] for b in json.loads(out)["bounds"]]
    assert ("alpha_roughly" in methods) == printed


def test_conjectures_range(capsys):
    code, out = run(capsys, "conjectures", "4..5", "--t", "3")
    assert code == 0
    rows = json.loads(out)
    assert [r["max_nakamura"] for r in rows] == [3, 4]
    assert all(r["inside"] for r in rows)


def test_conjectures_reversed_range_exit_code(capsys):
    assert main(["conjectures", "5..4", "--t", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: range start 5 exceeds range end 4\n"


def test_conjectures_file(tmp_path, capsys):
    path = write(tmp_path, "m.game", "weighted\nquota: 2\nweights: 1 1 1\n")
    code, out = run(capsys, "conjectures", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["nakamura"] == "3"
    assert payload["z_c"] == "3"
    assert payload["bound"] == "4"
    assert payload["inside"] is True


def test_conjectures_file_by_relative_path(tmp_path, monkeypatch, capsys):
    # a path with ".." is a file, not an n range
    write(tmp_path, "m.game", "weighted\nquota: 2\nweights: 1 1 1\n")
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    code, out = run(capsys, "conjectures", "../m.game")
    assert code == 0
    assert json.loads(out)["nakamura"] == "3"


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.game", "weighted\nquota: x\nweights: 1\n")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_capacity_exit_code(tmp_path, capsys):
    text = "weighted\nquota: 2\nweights: " + " ".join(["1"] * 65) + "\n"
    path = write(tmp_path, "big.game", text)
    assert main(["analyze", str(path)]) == 3
    capsys.readouterr()


def test_dense_table_capacity_exit_code(tmp_path, capsys):
    # a 25-player game given only by its antichain needs the dense table
    lines = ["1 2 3", "4 5 6", " ".join(map(str, range(7, 26)))]
    text = "simple\nplayers: 25\n" + "\n".join(lines) + "\n"
    with pytest.raises(CapacityError, match="dense table needs n <= 24"):
        maximal_losing(parse_game(text))
    path = write(tmp_path, "wide.game", text)
    assert main(["analyze", path]) == 3
    assert "dense table needs n <= 24" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["analyze", "/nonexistent/file.game"]) == 2
    capsys.readouterr()
