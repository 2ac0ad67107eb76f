"""Byte-for-byte pins on `mld` and `verify-example` output.

Every digest is the SHA-256 of the stdout of one CLI call, or a running
digest over many, recorded from the enumerating mld routines that preceded
the box-point ages. A changed digest means a changed mld value, achieving
vector, cone, point count, classification or fixed-point mld.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from math import gcd

import pytest

from conftest import coprime_sorted_tuples
from wblowup.exact_lattice import format_rational
from wblowup.harness import cli_dispatch
from wblowup.toric_mld import WeightVector, mld_at_fixed_point, mld_global


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_small_n2_pair_matches_golden_digest():
    # the stdout of all coprime 1 <= a1 <= a2 <= 60, in lexicographic order of (a2, a1)
    digest = hashlib.sha256()
    calls = 0
    for a2 in range(1, 61):
        for a1 in range(1, a2 + 1):
            if gcd(a1, a2) == 1:
                code, out, err = run(["mld", "--weights", f"{a1},{a2}"])
                assert (code, err) == (0, "")
                digest.update(out.encode())
                calls += 1
    assert calls == 1102
    assert digest.hexdigest() == "67760510b382a224622202a2d9de1f6bc488f1a7ef2bcb572366d5e0ca89b0f2"


GOLDEN = [
    # twenty n = 2 weights of the bench mld pool, spread over its range
    ("10093,10424", "ded3b7952b41ccae76506ffbca65c74e2d3c740880dd1a86a12ef68e88498864"),
    ("14897,15857", "aa5da7b37a63d761021715073e828475d0c73ff55646c95296fb35f357b679dc"),
    ("12842,18131", "16e3ce6e98ecd8d187aec672a26f10281115bfbd312852bb9eaaf27f923c67f3"),
    ("18167,20713", "cba7be7a9d48e2d0283b87081f3eef1677d99181a272b9ae44f98503b75fbbb2"),
    ("13032,22897", "b81b3a4b43e5b0488f26972013ea2555e176b1afbcf4a6dc9751fc1400d6d6ed"),
    ("23634,25079", "4eae2ef7e222131636bedb2b98b8cfafad0744a73fbaf0e56c64d126a38ee344"),
    ("15005,28073", "25f71e88a861ff1f348621a49252127aebc707bc693cd735d478dcb34c3ee156"),
    ("22539,34454", "4b521bcbe73b9e6762bc5a70690c7c9afb4d7f4c39d8960e9de25f772a37eb8f"),
    ("22700,36699", "1d6491c505cb3b52244e7a2abe3401a892669bde84b344f2356269d3f91695de"),
    ("38066,41771", "1853c6b9c6a88e42848a7e88512bbe7567d5e13ee9dfb691ce71eb7d4a94dd37"),
    ("30148,46969", "efd924dc732448dea2ca9e909d48a5f652d967de542a649ce3ccccac7fbf97c8"),
    ("39696,52313", "e18a814b4aae30b425c859bde58b4c8f10f7a5d02350f126071aadb1e8263a1b"),
    ("33093,59618", "0be63b63017cd9b6f41b6e6b958915d0fe554450f4947b382038cc7be5dac86c"),
    ("56663,66740", "d5fe5a504480fed6205219f93e96bc451f3c11c99be8bd71c660435e8d16c396"),
    ("70066,75057", "aa6fc1103b232ea1f1f32665f0525e4bae2503bb993de97768ce7152fe9481e6"),
    ("48879,82037", "d9abe1cda930ce28964217046bd08db95a58cf57afeca4ae38a46948afde5852"),
    ("59476,96021", "d33d283621494ad8f70379d8a9b81a898e3543e3d28620940dc452736b0a90b4"),
    ("58354,106309", "1d577f6fcd3394191b661e8c5f0b0037733fe8212c52a1f26dfdc7d8d4c428c3"),
    ("86084,121193", "cae01a4df131f9847adacd18a64ab41d228858b8921f183856b43ceb5e193b3b"),
    ("82673,146783", "2391f6c5fdd51c7e6bddc330f1219bde50d53fd9ab4affb9cf9bde8da59721a7"),
    ("1,1", "5179f34c3f096a54c1dc6c342103eded7f9fef92705fb17d64c721becd570701"),
    ("1000,1001", "6bea0974c998de74dbbc2f515e57fdf0594698f31610a3cbe1dbfc44bf7f1404"),
    ("99991,99999", "3661cd4977d76537387556f624b870170f5d407fd90eb4eba144db67d29ac828"),
    # n = 3
    ("1,1,1", "6d310c8ad1019fd4707b2dc4ba2e774c8d4604a11b924795831a07355276afdd"),
    ("2,3,5", "07cfae989f3bbc48d95772669ce58adaf3f743ca5fb85bed4f2b099a4e2e4eac"),
    ("5,7,11", "b0e0b0d18ebd89ca270cdc9ba65f84448cc60e07783fdeabeca198976cbe6961"),
    ("1,4,6", "cb0e27ae7492ce4b553fceef0cb4bd5c351b113f02a09850dcad51fede3446fe"),
    ("1052,1204,1239", "adfd1e1fc2e36df871f258e0a4e3b5285e27fe79c50711b598e905779b90544c"),
]


@pytest.mark.parametrize("weights,digest", GOLDEN, ids=[w for w, _ in GOLDEN])
def test_mld_json_matches_golden_digest(weights, digest):
    code, out, err = run(["mld", "--weights", weights])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


ALL_SMALL = [
    # (n, largest entry, tuples, running digest of the `mld` stdout of every
    # coprime sorted tuple, in lexicographic order)
    (3, 20, 1252, "8c870f184083cb3d68d64d894d536d41e880d03071a919a6f5825b9aa343dbca"),
    (4, 10, 626, "54854f7e5c26bc82162ae9954a1afe5b91761c43bdfe1cd8a020480d44b450a3"),
    (5, 6, 225, "3015b5881157e8dc45193014dfc59477c3dda4bbc6528df49f3e6d67b8755d98"),
]


@pytest.mark.parametrize("n,max_entry,calls,digest", ALL_SMALL, ids=[f"n{n}" for n, *_ in ALL_SMALL])
def test_every_small_tuple_matches_golden_digest(n, max_entry, calls, digest):
    # the JSON `mld` prints, built in-process to skip the per-call parser set-up
    running = hashlib.sha256()
    count = 0
    for entries in coprime_sorted_tuples(n, max_entry):
        payload = mld_global(WeightVector(entries)).to_json_dict()
        running.update((json.dumps(payload, indent=2) + "\n").encode())
        count += 1
    assert count == calls
    assert running.hexdigest() == digest


FIXED_POINTS = [
    # (n, largest entry, cones, running digest of "entries cone value" lines)
    (3, 12, 861, "fe46bf3f23120e9dd64c9e9c9a497a403e37786dba851b2cdbb9fbb353c436bc"),
    (4, 8, 1156, "f58fc1fc668c91717063064c9bfdd853428d22b2a88b018e6c7bd199e2f795ac"),
]


@pytest.mark.parametrize("n,max_entry,cones,digest", FIXED_POINTS, ids=[f"n{n}" for n, *_ in FIXED_POINTS])
def test_fixed_point_mld_on_every_cone_matches_golden_digest(n, max_entry, cones, digest):
    running = hashlib.sha256()
    count = 0
    for entries in coprime_sorted_tuples(n, max_entry):
        a = WeightVector(entries)
        for cone in range(1, n + 1):
            value = format_rational(mld_at_fixed_point(a, cone))
            running.update(f"{entries} {cone} {value}\n".encode())
            count += 1
    assert count == cones
    assert running.hexdigest() == digest


@pytest.mark.parametrize(
    "weights,cap",
    [("2999999,3000000", None), ("1000,1001", "1000")],
    ids=["2999999,3000000", "1000,1001-cap-1000"],
)
def test_n2_mld_takes_no_budget(weights, cap):
    # n = 2 never scans: both refused with exit 3 under a budget estimate
    argv = ["mld", "--weights", weights]
    code, out, err = run(argv + (["--cap", cap] if cap else []))
    assert (code, err) == (0, "")
    assert out == run(argv)[1]
    a1, a2 = map(int, weights.split(","))
    payload = json.loads(out)
    assert (payload["mld"], payload["achieved_at"]) == (format_rational(Fraction(2, a2)), [1, 1])
    assert payload["points_scanned"] == (a1 + a2 + gcd(a1 - 1, a2) + gcd(a1, a2 - 1)) // 2 + 1


def test_n3_mld_refusal_message():
    # n = 3 counts the lattice slices it reads: 2 here, so a cap of 1 is
    # refused before the last walk and a cap of 2 answers as the default
    argv = ["mld", "--weights", "1000,1002,1003"]
    assert run(argv + ["--cap", "1"]) == (3, "", "budget exhausted: 2 slices exceed budget 1\n")
    assert run(argv + ["--cap", "2"]) == run(argv)


def test_n4_mld_refusal_message():
    assert run(["mld", "--weights", "1000,1001,1003,1007", "--cap", "1000"]) == (
        3,
        "",
        "budget exhausted: 1001 visited prefixes exceed budget 1000\n",
    )


def test_verify_example_output_is_unchanged():
    assert run(["verify-example", "--limit", "300"]) == (
        0,
        "1-lc check for weights (1,k), k <= 300: 300/300 passed\n"
        "fixed-point mld check for weights (1,k), k <= 300: 300/300 passed\n",
        "",
    )
