"""Fixed inputs of the two workloads (standard library only).

Every run visits the same scenes, so SIR and SDR repeat from run to run;
the benchmark's ``--seed`` only sets the order in which a round visits them.
"""

import random

SETUP_REPEATS = 3  # fresh set-ups per timed run; setup_s is their median
CHECK_MARGIN_DB = 10.0  # required SIR margin of the intended source

# what the ``gc-iva`` console script runs
CLI = ("-c", "import sys; from gciva.cli import main; sys.exit(main())")

# separate-cli: 5 s scenes rendered by ``gc-iva simulate``; gc-aux nulls
# source 2's direction at channel 0, so channel 0 carries source 1
CLI_SCENES = (((45.0, 135.0), 0), ((45.0, 90.0), 1), ((20.0, 160.0), 2))
CLI_DURATION_S = 5.0
CLI_SNR_DB = 20.0

# sweep: one ``gc-iva benchmark`` scene per operation, all three algorithms
SWEEP_SCENES = (((45.0, 135.0), 20.0, 0), ((45.0, 90.0), 10.0, 1), ((20.0, 160.0), 30.0, 2))
SWEEP_ITERATIONS = 30
SWEEP_SEPARATIONS = 5  # aux once, gc-aux and gc-grad once per constrained source

WORKLOADS = ("separate-cli", "sweep")


def scene_order(n_scenes: int, seed: int) -> list[int]:
    """The order one round visits the scenes in, drawn from the seed."""
    order = list(range(n_scenes))
    random.Random(seed).shuffle(order)
    return order


def simulate_args(scene: int, out_dir: str) -> list[str]:
    (doa_a, doa_b), seed = CLI_SCENES[scene]
    return ["simulate", "--doa", f"{doa_a:g},{doa_b:g}", "--snr", f"{CLI_SNR_DB:g}",
            "--seed", str(seed), "--duration", f"{CLI_DURATION_S:g}", "--out", out_dir]


def separate_args(scene: int, scene_dir: str, out_dir: str) -> list[str]:
    (_, doa_b), _ = CLI_SCENES[scene]
    return ["separate", f"{scene_dir}/mixture.wav", "--algorithm", "gc-aux",
            "--doa", f"{doa_b:g}", "--constrained-channels", "0", "--out", out_dir]


def sweep_args(scene: int, out_dir: str) -> list[str]:
    (doa_a, doa_b), snr, seed = SWEEP_SCENES[scene]
    return ["benchmark", "--doa", f"{doa_a:g}:{doa_b:g}", "--snr", f"{snr:g}",
            "--seed", str(seed), "--iterations", str(SWEEP_ITERATIONS), "--out", out_dir]
