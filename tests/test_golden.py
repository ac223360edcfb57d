"""Byte-exact CLI outputs: the sha256 of stdout and the exit code per call.

The digests pin the printed JSON, CSV and verify table, so a refactor of
the formulas behind them must leave every byte in place.
"""

import hashlib

import pytest

from holeyhex.cli import main

SPEC = ("--n", "10", "--m", "3", "--left=-6,-2", "--right=2,6")
CORRELATE = ("--n", "40", "--m", "20", "--left=-6,-2", "--right=2,6")
# three hole pairs at the benchmark's scale: a longer Schur sum per entry
CORRELATE_P3 = ("--n", "144", "--m", "72", "--left=-6,-4,-2", "--right=2,4,6")
# a left hole left of a right one: the walk between their vertical edges
ZETA_EDGE_WALK = ("zeta", "--n", "4", "--m", "2", "--left=-2", "--right=0", "--kind", "lower")

GOLDEN = [
    (("count", *SPEC, "--kind", "full"),
     "da517271d23375ae5ee21379534ea33697027c04834f56a2ee5d536efd9d2668"),
    (("count", *SPEC, "--kind", "lower"),
     "08621a01f4bf15586ce76201285813a7815ec2491285a594cfd9ed38b6c4252d"),
    (("count", *SPEC, "--kind", "upper"),
     "39fb2bf83ab43b7fc78269b3dc453a4556067202470cca115fcabc8ecb1e3dc2"),
    (("count", *SPEC, "--kind", "upper_weighted"),
     "39fb2bf83ab43b7fc78269b3dc453a4556067202470cca115fcabc8ecb1e3dc2"),
    (("count", *SPEC, "--kind", "free"),
     "27d1b109b7a8d0f9edbe814e0b65ebc6b50625b42db908e66dbb97842dec80ef"),
    (("count", *SPEC, "--kind", "free_half"),
     "27d1b109b7a8d0f9edbe814e0b65ebc6b50625b42db908e66dbb97842dec80ef"),
    (("formulas", "--which", "box", "--n", "6", "--m", "2"),
     "37d9afa4c217e07aed8c43bbcc9f7a8c29e78587d309adc58dd548ca855af174"),
    (("formulas", "--which", "transpose_complement", "--n", "6", "--m", "2"),
     "06ce57f721249a91cc8416c4ad8796b1a31734c945a402e2f3620048a1f4334a"),
    (("formulas", "--which", "vertical_symmetric", "--n", "6", "--m", "2"),
     "fd203c95021e68c259c89fdce856fe1033bbfc9d9d8c83513d0f6f0892adc008"),
    (("correlate", *CORRELATE, "--model", "bulk"),
     "af7daf6591cbe2f1547322e5e5c17183aa0d1d4d2f50930b077c844fb4661cfc"),
    (("correlate", *CORRELATE, "--model", "free_boundary"),
     "530d62ab804a774f5075fb24c7fa199737663ca335e380fdb8c4d6e1ce196be0"),
    (("correlate", *CORRELATE_P3, "--model", "bulk"),
     "786b70e08d8137598ebc9b4bd5c1f576b4db3aa697dd97a3f8f49d8a8c805183"),
    (("sweep", "--xi", "1", "--size", "40", "--separations", "2,4,8", "--fit"),
     "5fff1e84cbd82cf2b57be0b189b136c44425eeecbd0d1fc4b7462d6d195d3aff"),
    (("verify", "--max-n", "4", "--max-m", "1", "--max-p", "1"),
     "63a0a973c39675e5dfebda796763a0b9dbb71cceb4b641d2fee3cab282c9f835"),
    # a right hole left of a left one: the two slanted walks, below and above
    (("zeta", "--n", "6", "--m", "1", "--left=0", "--right=-4", "--kind", "lower"),
     "518fc973e2abe7238cb3dfe73e8641a8dd455df2c2797be30338fc9ba42915d6"),
    (("zeta", "--n", "8", "--m", "1", "--left=0", "--right=-4", "--kind", "upper"),
     "e40b64f1fec718843de179a0443d988a1c8a6c8b274bbb8a8335ae9a69610c8f"),
    (ZETA_EDGE_WALK,
     "e0f4ba28047445de3ef5ef79d1fecc5529498959534932af232bafefb349747f"),
]


def _case_id(argv):
    # the verb plus the value that tells its calls apart, and the n of a
    # correlate or zeta call beyond the basic one
    flag = {"count": "--kind", "formulas": "--which", "correlate": "--model",
            "sweep": "--separations", "verify": "--max-n", "zeta": "--kind"}[argv[0]]
    case = f"{argv[0]}-{argv[argv.index(flag) + 1]}"
    return f"{case}-n{argv[2]}" if argv[1:7] == CORRELATE_P3 or argv == ZETA_EDGE_WALK else case


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[_case_id(a) for a, _ in GOLDEN])
def test_cli_output_is_byte_identical(capsys, argv, digest):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
