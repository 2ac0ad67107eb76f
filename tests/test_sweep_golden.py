"""Byte-for-byte pins on small sweeps.

Each CSV digest is the SHA-256 of the --no-timing CSV of one sweep, recorded
from the Fraction-based certify pipeline that preceded the integer facet
form. Next to it is the SHA-256 of what the same run prints on stdout, the
frontier summary, recorded from the sweep that built the summary as a
value class before writing it out as JSON. The JSON digest was recorded
from the sweep that built its rows by parsing that CSV back. The --cap
digests were recorded again once the budget counted the prefixes a scan
visits: 34 rows of the cap-30 sweep moved from inconclusive to 19
certificates, re-checked by bench/gate.verify_certificate, and 15 eps-lc
verdicts, re-checked by the
oracle's box scan; no other row changed. The cap-5 digest was recorded
again once a level range longer than the budget left was clipped rather
than refused before its first column: the row 3;11;11 moved from
inconclusive to the certificate (1, 1, 1) with psi 9/11 by enumeration,
which bench/gate.verify_certificate accepts; no other row changed. The
criterion-1 digest, the
30,554 n = 2 rows of the sweep-n2 benchmark workload, was recorded from
the certify pipeline that still built every construction's trace in
Fractions. The n = 3 --method enumeration digest was recorded from the
n = 3 walk that tested each slice's u-bound conditions one by one. A
changed digest means a changed verdict, point, psi, method or
row order somewhere in the sweep.
"""

import contextlib
import hashlib
import io

import pytest

from wblowup.harness import cli_dispatch

GOLDEN = [
    (
        "--n 2 --eps 1/2 --a1-min 1 --a1-max 40 --tail-cap 40",
        "2d4657e80b9cd7c34fcb3ff8959ce3f68829db7fa52005fa90b14408a8dec26e",
        "275836fe1dd30a7a531bfe4724335ba6f8f2044df61a043ee8c9dd58f0236332",
    ),
    (
        "--n 3 --eps 1/2 --a1-min 1 --a1-max 8 --tail-cap 8",
        "35c9d87c7d32d986e5f0690671b5f263c4b65eb2a33ac6ca33ad43c025da9c71",
        "7fd08e54049300efadb4b5c8ec34a36b0afac9193dccd52574233157580aa093",
    ),
    (
        "--n 4 --eps 1 --a1-min 1 --a1-max 5 --tail-cap 4",
        "08ee9ff86d98db664d12392d4e72ef5bec1a71304e91ac97aa94b21ecaf06486",
        "6fe9510e60df561c771b04ceef078b421fa0c0281f176eab5488acec05eeca3f",
    ),
    (
        "--n 3 --eps 1/2 --a1-min 2 --a1-max 8 --tail-cap 8,8 --method enumeration",
        "0668d6ca7031f165f332cec750a6607cfae61596a06e0754b4156e2ebaa70950",
        "40205f79e975e993d03b1889217692cb5436695fac5004371b744f2e37eb7fcc",
    ),
    (
        # every scan here fits in 30 visited prefixes
        "--n 3 --eps 1 --a1-min 1 --a1-max 8 --tail-cap 8 --cap 30",
        "ef20c77fc4036427118945792af238fd935975372ef3a5dcfade962a0aa8f906",
        "56cf222fc0f5db8427db0d3d2c224ac51c1d1ddcd7feafbde554ba2886e536b0",
    ),
    (
        # the cap turns 8 rows inconclusive
        "--n 3 --eps 1 --a1-min 1 --a1-max 8 --tail-cap 8 --cap 5",
        "0ada26af3873fc105279b327786524756c808524db6ba9c66531b5310c603089",
        "56cf222fc0f5db8427db0d3d2c224ac51c1d1ddcd7feafbde554ba2886e536b0",
    ),
    (
        "--n 2 --eps 1/2 --a1-min 1 --a1-max 40 --tail-cap 40 --method construction",
        "66e9fe6a8743b7caf5c71a735e289c6a7b5c652dd0dcfde6b5e56bd68eafa3d0",
        "55f8bf9d496ca49323dbd5ea2917a6ff331711aa13c7d7e8cfa42a9b6e41cf85",
    ),
    (
        "--n 2 --eps 1/2 --a1-min 1 --a1-max 40 --tail-cap 40 --method enumeration",
        "e9d488c9696466793a0041890288fc7108931df45901ab25d4be12d9efde0acb",
        "275836fe1dd30a7a531bfe4724335ba6f8f2044df61a043ee8c9dd58f0236332",
    ),
    (
        # criterion 1: every tuple at or above certificate_threshold(2, 1/2)
        "--n 2 --eps 1/2 --a1-min 26 --a1-max 126 --tail-cap 500",
        "99f7b77f01eb538155c70c3c29da209d65bbadc9fb79e2c2d27dc0e2fec3e06b",
        "f57f1f1418f814d235a5d74aca1e45a1cd4934758d6cd7729c1a46cfd70745a6",
    ),
]


@pytest.mark.parametrize("args,digest,summary_digest", GOLDEN, ids=[args for args, _, _ in GOLDEN])
def test_sweep_csv_matches_golden_digest(tmp_path, args, digest, summary_digest):
    out = tmp_path / "sweep.csv"
    summary = io.StringIO()
    with contextlib.redirect_stdout(summary):
        code = cli_dispatch(["sweep", "--no-timing", "--out", str(out)] + args.split())
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert hashlib.sha256(summary.getvalue().encode()).hexdigest() == summary_digest


def test_sweep_json_matches_golden_digest():
    # rows of both decided verdicts (certificate, eps-lc) plus the frontier
    out = io.StringIO()
    args = "--n 3 --eps 1 --a1-min 1 --a1-max 8 --tail-cap 8 --cap 30 --format json"
    with contextlib.redirect_stdout(out):
        code = cli_dispatch(["sweep", "--no-timing"] + args.split())
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == "2c27896850ca7518150757f3478c3d370c0d3515ac28429bff222f27761b4e50"
