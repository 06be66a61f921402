"""Golden CLI outputs: the sha256 of the stdout or output file bytes of fixed runs.

The digests pin the exact output bytes, so a refactor that changes any
formatted digit, row order or default value fails here. They change only
when the output is meant to change.
"""

import hashlib

import pytest

from qpisde.cli import main

CONVERGE_CONFIG = "# small converge run\nn_list = 4,8,16\npaths = 6\nschemes = qpi,em\nmu = -0.5\nseed = 3\n"

GOLDEN = [
    ("simulate-1-path", ["simulate", "--n", "64"], None,
     "524c08b84d7479c6e4ebe6fbaf640ed2c1b9c548a8a781f901905fc3f08ac3fc"),
    ("simulate-7-paths", ["simulate", "--n", "64", "--paths", "7"], None,
     "22f51bca47c93eea0bc1893e5dd9b3722ee30fd9dd16f2ab7849227f80cc932c"),
    ("simulate-milstein-paper", ["simulate", "--scheme", "milstein-paper"], None,
     "cddd066d536e2ccbf6736e6c7ef12d350ba0fcc6be721fedf1cc531891b8fb2d"),
    # a non-unit t_end and x0 pin the increment scale sqrt(dt) and the x0 factor
    ("simulate-t-end-x0-iem", ["simulate", "--t-end", "2.5", "--x0", "3", "--scheme", "iem",
                               "--paths", "3"], None,
     "842a8e4ce7362ae2d55de61a7cfcca1da37e7a18571b4ea905c4c4f916a168f9"),
    ("simulate-t-end-x0-em", ["simulate", "--t-end", "2.5", "--x0", "3", "--scheme", "em",
                              "--paths", "3"], None,
     "5cd2cd302dfe68601ac39f732d7a57e41a804c0b5925dd70bea5521e22cb9bba"),
    ("converge", ["converge", "--n-list", "4,16,64", "--paths", "20"], None,
     "8b4ea8457ec712a02630c933edad2647f0ea0682922bb4ace460e4ba6e46e19c"),
    # both Milstein signs in one table: the milstein-paper rows are the
    # milstein rows of the published sign
    ("converge-milstein-signs", ["converge", "--schemes", "milstein,milstein-paper",
                                 "--n-list", "4,16", "--paths", "6"], None,
     "899e3266e75c3c76de4ce04a8d0e8e7e5663ae64c6cafa020a9601a947920498"),
    ("converge-config", ["converge"], CONVERGE_CONFIG,
     "0e51d73b6e29c7462cee1feb6af08ec2646868ed580aa1f3bfeef9fe3551b8d4"),
    ("stability-csv", ["stability", "--grid", "30"], None,
     "d85880066ef3641ecfbbe9b3467fb5ac6498c2035571ef68f27558bd0d3cad83"),
    ("stability-svg", ["stability", "--grid", "30", "--scheme", "qpi-exact", "--format", "svg"], None,
     "9fb487dd00cc304831ebd85169098c5b045e73d4b622989b6d09e4f7c634b8bf"),
    # the benchmark's stability workload, at its grid of 300
    ("stability-csv-300", ["stability", "--mu-range", "-4:1", "--dt-range", "0.01:1", "--grid", "300",
                           "--scheme", "qpi-paper", "--format", "csv"], None,
     "7caab6a75d5c69026a16a7db3e9d9e4c0f4f7c992454fb872e0a9a9f60e60e1a"),
    ("stability-svg-300", ["stability", "--mu-range", "-4:1", "--dt-range", "0.01:1", "--grid", "300",
                           "--scheme", "qpi-exact", "--format", "svg"], None,
     "8e4545ad82fa8e67b9c91cbc2f3ce217202296fcfbdeae62daabcf9523f39aba"),
    ("stability-singular", ["stability", "--scheme", "iem", "--mu-range", "0:4",
                            "--dt-range", "0.25:0.75", "--grid", "3"], None,
     "ab7b61c6d6a70006279ec0dc70d4a0533bdb51bf11fc1b06d4dced8982d513a2"),
    # the same singular scan drawn as SVG: the singular cells get no rect
    ("stability-singular-svg", ["stability", "--scheme", "iem", "--mu-range", "0:4",
                                "--dt-range", "0.25:0.75", "--grid", "3", "--format", "svg"], None,
     "8ea1517465acfdf82d89e6129efd905eeb82b4944de5fd94d59fd5969fa20992"),
    # a dt column holding the singular cell mu*dt = 3 among regular ones
    ("stability-singular-column", ["stability", "--mu-range", "-42.9:13.3", "--dt-range",
                                   "3.698630136986274:4.698630136986274", "--grid", "46"], None,
     "ca8d00b4b8071612a1ca8925853170d88e83f65114d07f3c841f3f2bf8932393"),
    ("local-error", ["local-error", "--dt-list", "0.25,0.125", "--samples", "500"], None,
     "6c76ba8cad9dd2f6169be4411456ccf10b85493d70a65cf18d6aed602d99130a"),
    # one run per layout class of the %.17g writer: a t column in e-notation below
    # 1e-6 (exponent -7) and above it (-6, -5), negative integers with no ".",
    # values of 1e17 and more, an exact 0 on the mu axis and a dt axis below 1e-6
    ("simulate-t-e-07", ["simulate", "--t-end", "1e-6", "--n", "8", "--paths", "2"], None,
     "2bc2c2d84b59284e9bfcd1c7bec1ac47df868ca4ad8fe84925fb00cd54ae8d31"),
    ("simulate-t-e-06", ["simulate", "--t-end", "1e-5", "--n", "8", "--paths", "2"], None,
     "5d3ce4bf537ca5e8eac765a3891ea4fbd399eb147f7944019288214a5edf3a82"),
    ("simulate-negative-integers", ["simulate", "--x0", "-3", "--mu", "0", "--sigma", "0",
                                    "--n", "4"], None,
     "c3a60b90db8f81e80de0dceb78d3948b8b11c335c389ee4df247071651cafec7"),
    ("simulate-e+17", ["simulate", "--x0=-1e18", "--n", "4", "--paths", "2", "--scheme", "em"],
     None, "d7a37c7917230cab66c58284e32f91fd246aad3334f1bb8f8eda6e81b73b32f0"),
    ("stability-zero-mu-tiny-dt", ["stability", "--mu-range", "-1:1", "--dt-range", "1e-9:1e-7",
                                   "--grid", "3"], None,
     "2a89e7aa6b5f3ae57b322dd36075bf8410de582ffdba96ecc1c782b01e46d45a"),
]


def stdout_digest(argv, config, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    capsys.readouterr()
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("argv,config,digest", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_golden_stdout(argv, config, digest, tmp_path, capsys):
    assert stdout_digest(argv, config, tmp_path, capsys) == digest


# The benchmark's workloads at seed 85, written through `-o FILE`: the binary
# file path, pinned to the digests the benchmark checks its outputs against
STABILITY_300 = ["stability", "--mu-range", "-4:1", "--dt-range", "0.01:1", "--grid", "300"]
FILE_GOLDEN = [
    ("ensemble", ["simulate", "--scheme", "qpi", "--n", "1024", "--paths", "500"],
     "38868f099d21fab5f0a2e8b7ca33aa4e1664e235f1ce6fa97d1263f2a772ff10"),
    ("converge", ["converge", "--n-list", "4,16,64,256,1024", "--schemes", "qpi,iem,milstein",
                  "--paths", "1000"],
     "02df2fdfbdff36fa37df34a6f25ec4f9c5778198b78b9a85676ba63483e9f947"),
    ("stability-csv", STABILITY_300 + ["--scheme", "qpi-paper", "--format", "csv"],
     "7caab6a75d5c69026a16a7db3e9d9e4c0f4f7c992454fb872e0a9a9f60e60e1a"),
    ("stability-svg", STABILITY_300 + ["--scheme", "qpi-exact", "--format", "svg"],
     "8e4545ad82fa8e67b9c91cbc2f3ce217202296fcfbdeae62daabcf9523f39aba"),
]


@pytest.mark.parametrize("argv,digest", [g[1:] for g in FILE_GOLDEN], ids=[g[0] for g in FILE_GOLDEN])
def test_golden_file(argv, digest, tmp_path):
    out = tmp_path / "out"
    assert main(argv + ["--seed", "85", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
