"""Exact answers of CLI calls that only the CI workflow ran before.

Each row is an argv, its exit code and its whole stdout, recorded from the
certify pipeline whose fallback drove the interior scan itself rather than
through is_eps_lc. A JSON answer is written as the value it holds; the CLI
must print it as json.dumps(value, indent=2) does, byte for byte. The rows
cover check and mld answers, among them three n = 3 mlds whose least psi
is shared by 17 to 31 points (the lex-first tie-break); witnesses from n = 3
near 10^60, which the lattice search answers, to n = 4 near 10^18, which
the Dirichlet walk answers at its 57th return (q = 997); and the bundled
selftest and verify-example runs at the sizes CI ran them. The last test
runs the four calls whose JSON layout CI once compared with json.dumps.
"""

import json

import pytest

from wblowup.harness import cli_dispatch

# near 10^18 (n = 4), 10^30 and 10^60 (n = 3)
N18 = "3946724388818297881,5886468476920220418,6812813934114883894,6931399166185272404"
N30 = "1060365362074921892703914035062,1353918141503929023461728491263,1494973553486308774251300770804"
N60 = (
    "1032891599307822840522796851545567033115126178409188741081385,"
    "1539324331660694462946871564500198556868605200970556236421058,"
    "1755373778879530543395442863424277389730425228177132837431061"
)

ANSWERS = [
    (("check", "--weights", "1,287,309", "--eps", "1"), 0,
     {"weights": [1, 287, 309], "eps": "1", "verdict": "eps-lc"}),
    (("check", "--weights", "1,196,392", "--eps", "1"), 0,
     {"weights": [1, 196, 392], "eps": "1", "verdict": "eps-lc"}),
    (("mld", "--weights", "1009,1013,1019,1021"), 0,
     {"weights": [1009, 1013, 1019, 1021],
      "mld": "23/1021",
      "achieved_at": [1, 1, 1, 1],
      "cone": 4,
      "points_scanned": 153,
      "classification": "klt-with-mld"}),
    (("mld", "--weights", "15701,28340,29766"), 0,
     {"weights": [15701, 28340, 29766],
      "mld": "100/2243",
      "achieved_at": [77, 139, 146],
      "cone": 1,
      "points_scanned": 12307,
      "classification": "klt-with-mld"}),
    (("mld", "--weights", "29,140,336"), 0,
     {"weights": [29, 140, 336],
      "mld": "1/2",
      "achieved_at": [1, 3, 7],
      "cone": 3,
      "points_scanned": 148,
      "classification": "klt-with-mld"}),
    (("mld", "--weights", "4,359,724"), 0,
     {"weights": [4, 359, 724],
      "mld": "1/2",
      "achieved_at": [1, 60, 121],
      "cone": 3,
      "points_scanned": 266,
      "classification": "klt-with-mld"}),
    (("mld", "--weights", "3,408,610"), 0,
     {"weights": [3, 408, 610],
      "mld": "1/2",
      "achieved_at": [1, 103, 154],
      "cone": 2,
      "points_scanned": 204,
      "classification": "klt-with-mld"}),
    (("mld", "--weights", "2,3,100001"), 0,
     {"weights": [2, 3, 100001],
      "mld": "66670/100001",
      "achieved_at": [1, 1, 33333],
      "cone": 3,
      "points_scanned": 8338,
      "classification": "klt-with-mld"}),
    (("mld", "--weights", "1000000007,1000000009,1000000021"), 0,
     {"weights": [1000000007, 1000000009, 1000000021],
      "mld": "27/1000000021",
      "achieved_at": [1, 1, 1],
      "cone": 3,
      "points_scanned": 503703713,
      "classification": "klt-with-mld"}),
    (("witness", "--weights", "5,6,61", "--eps", "1", "--theta", "1/100"), 0,
     {"weights": [5, 6, 61],
      "eps": "1",
      "point": [1, 1, 7],
      "psi": "52/61",
      "method": "n3-projection",
      "trace": {"M2": 2, "p": 1, "q": 1, "residual": "1/5", "x3_lo": "61/10", "x3_hi": "65/6"}}),
    (("witness", "--weights", "1000,1001,1000003", "--eps", "1/2"), 0,
     {"weights": [1000, 1001, 1000003],
      "eps": "1/2",
      "point": [1, 1, 751],
      "psi": "498006/1000003",
      "method": "n3-projection",
      "trace": {"M2": 31, "p": 1, "q": 1, "residual": "1/1000", "x3_lo": "3000009/4000", "x3_hi": "2001003/2002"}}),
    (("witness", "--weights", "10000,10007,10013,10019", "--eps", "1/2"), 0,
     {"weights": [10000, 10007, 10013, 10019],
      "eps": "1/2",
      "point": [1, 1, 1, 1],
      "psi": "38/10019",
      "method": "general-theta",
      "trace": {"Z": 10,
                "dirichlet": {"q": 1,
                              "p": [1, 1, 1],
                              "Z": 10,
                              "residuals": ["-7/10000", "-13/10000", "-19/10000"],
                              "satisfied": True},
                "theta": "1/33",
                "hypothesis_ok": True,
                "exit_coefficients": ["-19/5000", "-10/10007", "14/10013", "38/10019"],
                "exit_facet": 4,
                "x1_0": "10019/76",
                "k": 1}}),
    (("witness", "--weights", N18, "--eps", "1/2"), 0,
     {"weights": [3946724388818297881, 5886468476920220418, 6812813934114883894, 6931399166185272404],
      "eps": "1/2",
      "point": [997, 1487, 1721, 1751],
      "psi": "202062017844746474/3406406967057441947",
      "method": "general-theta",
      "trace": {"Z": 44571,
                "dirichlet": {"q": 997,
                              "p": [1487, 1721, 1751],
                              "Z": 44571,
                              "residuals": ["-29905316650807699/3934884215651842987357",
                                            "-62819156248589117/3934884215651842987357",
                                            "109436134123002843/3934884215651842987357"],
                              "satisfied": True},
                "theta": "1/33",
                "hypothesis_ok": True,
                "exit_coefficients": ["16711661223607024/3934884215651842987357",
                                      "33929506220614226/978134845248243292791",
                                      "202062017844746474/3396187746156269621159",
                                      "-156103183559194843/1727651242171679146697"],
                "exit_facet": 3,
                "x1_0": "3396187746156269621159/404124035689492948",
                "k": 1}}),
    (("witness", "--weights", N30, "--eps", "1/2"), 0,
     {"weights": [1060365362074921892703914035062, 1353918141503929023461728491263,
                  1494973553486308774251300770804],
      "eps": "1/2",
      "point": [456874494, 583356160, 644132023],
      "psi": "138203265208724323294103/9301450544516858707929070483",
      "method": "general-theta",
      "trace": {"Z": 10197299560,
                "dirichlet": {"q": 456874494,
                              "p": [583356160, 644132023],
                              "Z": 10197299560,
                              "residuals": ["71017734175225023746807/4249595510992164296654587864810960602",
                                            "67185531033499295539625/4249595510992164296654587864810960602"],
                              "satisfied": True},
                "theta": "1/19",
                "hypothesis_ok": True,
                "exit_coefficients": ["138203265208724323294103/4249595510992164296654587864810960602",
                                      "-9730812424032159411317429/618570665817027971605991332811166545922",
                                      "-1506089952440602939961909/170753821448109814290955817125721868294"],
                "exit_facet": 1,
                "x1_0": "2124797755496082148327293932405480301/138203265208724323294103",
                "k": 1}}),
    (("witness", "--weights", N60, "--eps", "1/2"), 0,
     {"weights": [1032891599307822840522796851545567033115126178409188741081385,
                  1539324331660694462946871564500198556868605200970556236421058,
                  1755373778879530543395442863424277389730425228177132837431061],
      "eps": "1/2",
      "point": [34727043510522568903, 51753914039198196026, 59017753302699548354],
      "psi": "120868550906045452577701804000492305508971891979201/1755373778879530543395442863424277389730425228177132837431061",
      "method": "general-theta",
      "trace": {"Z": 101084580958055771808,
                "dirichlet": {"q": 34727043510522568903,
                              "p": [51753914039198196026, 59017753302699548354],
                              "Z": 101084580958055771808,
                              "residuals": ["-47716887023874698354050503405310550569652475583364/35869271510816006696175161951604259003814618455763856155093253391608200393170655",
                                            "-81099366748842392860211868024670012223651828105793/35869271510816006696175161951604259003814618455763856155093253391608200393170655"],
                              "satisfied": True},
                "theta": "1/19",
                "hypothesis_ok": True,
                "exit_coefficients": ["-128816253772717091214262371429945835749793781120254/35869271510816006696175161951604259003814618455763856155093253391608200393170655",
                                      "3973851433335819318280283714799514475837154727168/26728091521193505099464614456250243754379012335130905393053602976999970462579687",
                                      "120868550906045452577701804000492305508971891979201/60958941596379879978851528299071018975816507528828101809730260969005736884896083"],
                "exit_facet": 3,
                "x1_0": "60958941596379879978851528299071018975816507528828101809730260969005736884896083/241737101812090905155403608000984611017943783958402",
                "k": 1}}),
    (("selftest", "--max-entry", "10"), 0,
     "selftest: 204 weight vectors checked, 0 failures\n"),
    (("verify-example", "--limit", "1000"), 0,
     ("1-lc check for weights (1,k), k <= 1000: 1000/1000 passed\n"
      "fixed-point mld check for weights (1,k), k <= 100: 100/100 passed\n")),
]


def _name(argv):
    return " ".join(argv).replace(N18, "N18").replace(N30, "N30").replace(N60, "N60")


@pytest.mark.parametrize("argv,code,stdout", ANSWERS, ids=[_name(argv) for argv, *_ in ANSWERS])
def test_cli_answers_are_pinned(capsys, argv, code, stdout):
    assert cli_dispatch(list(argv)) == code
    captured = capsys.readouterr()
    if not isinstance(stdout, str):
        stdout = json.dumps(stdout, indent=2) + "\n"
    assert (captured.out, captured.err) == (stdout, "")


@pytest.mark.parametrize("argv,code", [
    (("mld", "--weights", "15701,28340,29766"), 0),
    (("check", "--weights", "5,6,61", "--eps", "1"), 1),
    (("witness", "--weights", "383872177839589,673055161842094,679204928978999", "--eps", "1/2"), 0),
    (("sweep", "--n", "3", "--eps", "1/2", "--a1-min", "2", "--a1-max", "8", "--tail-cap", "8,8", "--no-timing",
      "--format", "json"), 0),
], ids=["mld", "check", "witness", "sweep"])
def test_cli_json_is_json_dumps_indent_2(capsys, argv, code):
    # the CLI writes JSON with its own writer; any drift from the standard library fails here
    assert cli_dispatch(list(argv)) == code
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
