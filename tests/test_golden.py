"""Golden-output gate: the CLI's stdout, stderr and exit codes are frozen.

The fixtures under ``tests/data/`` hold the exact CLI output; a change
that moves any byte of it fails here.  The default ``scan --json -``
output (about 70 kB) is frozen by its sha256 instead of a file.
"""
import hashlib
from pathlib import Path

import pytest

from slopelab import cli

DATA = Path(__file__).parent / "data"

SCAN_JSON_SHA256 = "9c83cc9c7dd8f50747b1f0beb4a1c80093864c0590adf80d8ab583b1253d1610"


@pytest.mark.parametrize(
    "argv, fixture",
    [
        (["verify", "p:-7,5,7,3,5", "--json", "-"], "verify_pretzel.json"),
        (
            ["verify", "m:-46/327,35/151,5/31,16/35,1/5", "--json", "-"],
            "verify_montesinos.json",
        ),
        (["jones", "m:-1/2,1/3,2/3", "--n", "3"], "jones_montesinos_n3.txt"),
        (["scan", "--exceptional"], "scan_exceptional.txt"),
        (["qip", "--a", "1,2,3", "--b=-3,0,4", "--t", "5"], "qip.txt"),
    ],
)
def test_cli_output_matches_fixture(argv, fixture, capsys):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (DATA / fixture).read_text(encoding="ascii")


def test_default_scan_json_digest(capsys):
    assert cli.main(["scan", "--json", "-"]) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == SCAN_JSON_SHA256

