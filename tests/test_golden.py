"""Golden outputs: the sha256 of each file that three reference commands
write.

A change that keeps the arithmetic keeps these bytes, so a speed-up or a
refactor that alters any output fails here.  The hashes pin this
platform's libm (the last bit of ``pow``, ``sqrt`` and the ``%.17g``
formatting all reach the files) and the python kernel backend; a
numba-compiled step may round differently and is not pinned.  A change
that alters an output on purpose updates the hash here and states the
old and the new value.
"""

import hashlib

import pytest

from helfrich import cli, kernel_backend

PAPER_FLAGS = ["--c0", "1", "--lambda", "0.25", "--p", "1"]

GOLDEN = {
    "sweep": (
        ["sweep", "--c0-range=-1:2:3", "--lambda-range=-0.5:1:2",
         "--p-range", "0.5:4:2", "--w0p-range", "0.001:0.5:3"],
        {"phase.csv": "4f7a48ae2cd1ba742f90c55826e2da5f7df1eb90ebaa4ba14d025fedc7a09272"},
    ),
    "verify": (
        ["verify", *PAPER_FLAGS, "--sweep-points", "16", "--sweep-min", "1e-4"],
        {"bounds_report.json":
            "9972af56957106d874eefb755fe16e663db82e588ae9b1c2337ece6c8f11013f"},
    ),
    "solve": (
        ["solve", *PAPER_FLAGS, "--w0p", "0.05", "--format", "csv,json,svg,obj"],
        {
            "profile.csv": "bb2b4197d32504c08071cbb4874521bc0a913f6b4b892f2ad611000b957eb00e",
            "report.json": "d4bfd9ffcefcce5d6540ad5c12733bd534e035822263f5e985291466b6637271",
            "profile.svg": "2264d83ea3144ce0bf5ec0c57f196ae25681ded6d80f2ae5d4a831ad5c316da0",
            "mesh.obj": "505bc1404baf82c00980d94d22b59c74758808521c9c2e8690fd289221db17f5",
        },
    ),
}


@pytest.mark.skipif(kernel_backend() != "python",
                    reason="the hashes pin the python kernel backend")
@pytest.mark.parametrize("command", GOLDEN)
def test_outputs_match_golden_sha256(command, tmp_path):
    argv, hashes = GOLDEN[command]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in hashes}
    assert got == hashes
