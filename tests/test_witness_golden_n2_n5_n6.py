"""Byte-for-byte pin on `witness` output at n = 2, 5 and 6.

The digest is a running SHA-256 over the exit code and stdout of each call,
recorded from the constructions that walked the multiples k*w of their
Dirichlet point and located its exit from C(a, eps) in Fraction algebra.
It was recorded again once the budget counted the prefixes a scan visits,
when two calls moved from inconclusive to certificates that
bench/gate.verify_certificate accepts. A changed digest means a changed
certificate, trace or verdict.

The n = 2 calls cover both plane cases, a_1 = 1, and tuples below
certificate_threshold that the interior scan certifies or proves eps-lc.
The n = 5 and 6 calls cover general-theta hits from 10^3 to 10^30 and
misses that end in the scan: a certificate or an eps-lc verdict.
"""

import contextlib
import hashlib
import io

from wblowup.harness import cli_dispatch

N2 = [
    # a_1 = 1: the Dirichlet point is a itself, with psi = 1
    ("1,1", "1/2"),
    ("1,7", "1/2"),
    ("1,40", "1"),
    # below certificate_threshold at eps 1/2: eps-lc, or certified by the scan
    ("2,3", "1/2"),
    ("4,7", "1/2"),
    ("5,8", "1/2"),
    ("3,11", "1/2"),
    ("8,27", "1/2"),
    ("8,43", "1/2"),
    # case 1
    ("2,3", "1"),
    ("3,7", "1/2"),
    ("26,27", "1/2"),
    ("59,91", "1/2"),
    ("41190,80029", "1"),
    ("7128638683,9606446815", "1/2"),
    ("9446125771165426067,9974816256220054172", "1"),
    ("3739197440244446344677429625283,6121070180346353205815713151664", "1/2"),
    # case 2
    ("3,5", "1"),
    ("5,9", "1/2"),
    ("59,97", "1/2"),
    ("80,89", "1/2"),
    ("89377,91102", "1"),
    ("3365602028,4189136659", "1/2"),
    ("5564493854665792251,7943950675824562135", "1"),
    ("5911338425402359908137206282636,6608593422054738143260533135557", "1/2"),
]

N5_N6 = [
    # general-theta hits
    ("8,9,9,10,16", "1"),
    ("144,144,175,194,195", "1"),
    ("10000,10007,10013,10019,10039", "1/2"),
    ("1328887,1376510,1380497,1381024,1382568", "1"),
    ("1181360330980,1422451993173,1952158054800,2092046545749,2242996992443", "1"),
    ("708765412334874,737352951583427,824812357285583,988285224511183,1268710729636180", "1/2"),
    ("3,3,3,5,6,6", "1"),
    ("1156416,1171567,1195168,1229162,1230153,1235511", "1"),
    ("1555049029136,1637677850229,1676625472511,2404130770865,2658015493328,2898154895060", "1"),
    ("152313673510084281008,155930685591877874018,160161011341505666652,"
     "161291479822264085741,161836875568426546620,163694482520915542528", "1"),
    ("1289724775452300807701282277360,1300159123223939677959893626560,"
     "1318659704021763684630941703025,1336505786287687582868199135519,"
     "1359360780399030142080208401199,1401078933263846551932258249001", "1"),
    # misses: certified by the scan or eps-lc
    ("90,103,116,127,139", "1/2"),
    ("9,11,13,14,18", "1/2"),
    ("3891850394,4076666010,4586517207,6060428235,6516622790", "1/2"),
    ("22,22,27,28,29,37", "1"),
    ("7,9,9,11,11,14", "1"),
    ("4423227716,4746700995,5015535261,5803959390,6461725664,7105863203", "1"),
]


def test_n2_n5_n6_witness_json_matches_golden_digest():
    running = hashlib.sha256()
    for weights, eps in N2 + N5_N6:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_dispatch(["witness", "--weights", weights, "--eps", eps])
        assert err.getvalue() == ""
        running.update(f"{code}\n{out.getvalue()}".encode())
    assert running.hexdigest() == "e6d5d7b9ad96cf8be441a2e55120418334a78153324d10670775ba0cd4989d2e"
