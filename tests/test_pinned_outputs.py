"""Byte-for-byte pins of every file and stdout the output-writing
subcommands produce on small inputs.

Each case runs ``hypercut.cli.main`` in a fresh directory with relative
output paths, so the "wrote ... to <path>" lines are pinned as well, and
compares the SHA-256 of stdout and of each file it names.
"""

import hashlib

import pytest

from hypercut import core
from hypercut.cli import main

CASES = {
    "dist-files": (
        ["dist", "-n", "12", "-g", "2", "-d", "4", "-e", "1/10",
         "-o", "A.csv", "--b-out", "B.csv"],
        {"stdout":
         "ca06f9add1e873a5b27d754b1a7a3fb978ff28f69c758ba8b10b6083d16d311d",
         "A.csv":
         "4cf17590e4d5445ce2ff5d0fa42d7e212b9f4439a255e751fedafbda33972004",
         "B.csv":
         "a98b652dde4336a99bb52fcf5b7a57da612f331bb0b6e6c0da3566b533079be6"}),
    "dist-stdout-suppress-zeros": (
        ["dist", "-n", "12", "-g", "2", "-d", "4", "-e", "0",
         "--suppress-zeros"],
        {"stdout":
         "a941f02194d68eabebae73a60a59456cd8ec0c572da068f681e05a5ab077b61e"}),
    "oracle-exhaustive-stdout": (
        ["oracle", "-n", "4", "-g", "2", "-d", "4"],
        {"stdout":
         "003fff5598d1b6117177527320b242c0b1790fcc7b79501c4719a22f52f7373e"}),
    "oracle-exhaustive-class-walk": (
        ["oracle", "-n", "9", "-g", "2", "-d", "3"],
        {"stdout":
         "7e0c84d6b334d9ca9633cc1657c80781e6bc3b3239497b590e84bcf633e0f0ed"}),
    "oracle-exhaustive-file": (
        ["oracle", "-n", "4", "-g", "2", "-d", "4", "-o", "oracle-a.csv"],
        {"stdout":
         "f776ad6f0bf04f84c23c68a4eeb151f2778189d6f2652e54cab569b17c8c0050",
         "oracle-a.csv":
         "e5f3c8d8b164d7cbd39ec98ae0d9cc1b874a295c27649cfb826b74414a809202"}),
    "oracle-montecarlo-file": (
        ["oracle", "-n", "4", "-g", "2", "-d", "4", "--mode", "montecarlo",
         "--samples", "500", "--seed", "3", "-o", "mc.csv"],
        {"stdout":
         "c64cbb56530762575f32d1ed36665c6b99a1a6ba1a7e3b8e958b93ad30903295",
         "mc.csv":
         "a95cc1c04cadf745cf337283f4ad092fb9b48e32c6f903776ac644f6f3038d36"}),
    "growth-file": (
        ["growth", "-g", "2", "-d", "5", "--step", "0.1", "-o", "curve.csv"],
        {"stdout":
         "5d1767db13985edeb1f9011dee1f18d7f923f3d9447e4787ff881afede3f5a72",
         "curve.csv":
         "b44ce0993d48ad4034b91da1cee7c1ab6c495c5f9cc4221e7f37c4de97b0502d"}),
    # eps > 0 reaches the inner solver's bisection; the eps = 0 pins above
    # stop at u = 1.  Recorded before the bisection skipped fenced midpoints.
    "growth-eps-file": (
        ["growth", "-g", "2", "-d", "5", "-e", "0.05", "--step", "0.01",
         "-o", "curve.csv"],
        {"stdout":
         "2a0bbd05f89693f8d15802535ef635ff827fefac81e7e0f8870f9910178b0f02",
         "curve.csv":
         "210849fd9af65e33d59ffbd21359c9487d6a07bb11463acd7084ceed183eb684"}),
    "growth-stdout": (
        ["growth", "-g", "2", "-d", "5", "--step", "0.1"],
        {"stdout":
         "b44ce0993d48ad4034b91da1cee7c1ab6c495c5f9cc4221e7f37c4de97b0502d"}),
    "tables-file": (
        ["tables", "-g", "2,3", "-d", "4,6", "-e", "0.1", "-o", "v.csv"],
        {"stdout":
         "fd4d2f7edf3ad7ff7d5ee25fc47d0965ffd2e35162936d6e44f9d30e259cfd96",
         "v.csv":
         "7640ab73d388f2a8aefb78a6db330dc843c44ce3b0a80d8ff51371f05243e12f"}),
    "sample-file": (
        ["sample", "-n", "8", "-g", "2", "-d", "4", "--seed", "11",
         "-o", "s.alist"],
        {"stdout":
         "e52bad7d0e714d86f8a1f6840a94baaf00a817d17f9aa287de561bc4d619237c",
         "s.alist":
         "1e5ba810720a0150d1f4dd7845a627c3ccb433c6758916df3d791d5ca4223ac4"}),
    "sample-stdout": (
        ["sample", "-n", "8", "-g", "2", "-d", "4", "--seed", "11"],
        {"stdout":
         "1e5ba810720a0150d1f4dd7845a627c3ccb433c6758916df3d791d5ca4223ac4"}),
    "check": (
        ["check", "--alist", "s.alist", "--partition", "p.txt"],
        {"stdout":
         "3724f4f2c40e7aeea8ea515de12fe0098c8db1e7332d98a618b737054eea8eb7"}),
    "check-capped": (
        ["check", "--alist", "s.alist", "--partition", "p.txt"],
        {"stdout":
         "c6d2dbd3bbce1a4eb403f937d8f6f51d1331b8a851c3353339ee427b270de8b1"}),
    # m = 16: K = 2 is searched, K = 3 has no 0-balanced partition and
    # K = 4 stops at the default cap, 4^16 > 2^24.
    "check-default-cap": (
        ["check", "--alist", "s.alist", "--partition", "p.txt"],
        {"stdout":
         "692e124d2608f8ec1635681437f5c4d4e5ac2153cc75cb30b2040fddd689fbb3"}),
}

#: What each ``check`` case reads, written into its directory first: a
#: sampled instance and a partition of its vertices into 2 equal parts.
#: "check" and "check-capped" read the instance of "sample-file".
_SMALL = (["sample", "-n", "8", "-g", "2", "-d", "4", "--seed", "11",
           "-o", "s.alist"], {"p.txt": "1\n1\n2\n2\n"})
CHECK_INPUTS = {
    "check": _SMALL,
    "check-capped": _SMALL,
    "check-default-cap": (
        ["sample", "-n", "32", "-g", "2", "-d", "4", "--seed", "0",
         "-o", "s.alist"], {"p.txt": "1\n" * 8 + "2\n" * 8}),
}

#: The enumeration bound each case runs under, where it is not the default.
LOWERED_CAP = {"check-capped": 16}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_are_pinned(case, tmp_path, monkeypatch, capsys):
    argv, digests = CASES[case]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HYPERCUT_OUTDIR", raising=False)
    if case in LOWERED_CAP:
        monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", LOWERED_CAP[case])
    if argv[0] == "check":
        sample_argv, files = CHECK_INPUTS[case]
        assert main(sample_argv) == 0
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        capsys.readouterr()
    assert main(argv) == 0
    got = {"stdout": _sha256(capsys.readouterr().out.encode())}
    got.update((name, _sha256((tmp_path / name).read_bytes()))
               for name in digests if name != "stdout")
    assert got == digests
