"""Golden artifacts: `egan run` writes the same bytes as the recorded runs.

Every artifact of one tiny run per mode is checked by sha256, except
`meta_<mode>_<seed>.txt`, whose `out_dir` line names the output directory.
A refactor must leave every digest unchanged.  A change that deliberately
alters RNG consumption or floating-point evaluation order updates the digests
below, and its CHANGES.md entry names the reason.  Running this file as a
script prints the current code's digests in the GOLDEN layout:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from egan.cli import main

TINY_SETS = [
    "--set", "training_episodes=60",
    "--set", "pretrain_episodes=3",
    "--set", "gan_train_steps=20",
    "--set", "enhancer_train_steps=20",
    "--set", "synthetic_batches=5",
    "--set", "refine_samples=64",
]

RUNS = {
    "egan": ["--mode", "egan", "--seed", "2"],
    "gan": ["--mode", "gan", "--seed", "4"],
    "none": ["--mode", "none", "--seed", "5"],
}

GOLDEN = {
    "egan": {
        "curve_egan_2.csv": "cedd0d5f277b51f650efcfb0cf307d2ebce75bbca059dbc52b0c6cc01c814267",
        "discriminator_egan_2.txt": "9e36cc0b5dbe2877fc8a0f11c9e6e3bccbe1c99dff19191c6e530b13b71ad465",
        "enhancer_egan_2.txt": "282714e894278a96f315564941a73f135d4747bbb07b33d3bb975ea29e1729fa",
        "gan_losses_egan_2.csv": "ad88e6427d3cb997dfbf1ce502fd2ef32a060f410084bcf2d7781e22c07cb2bb",
        "generator_egan_2.txt": "f1f47887f0685e4c0db6f88a77526e63a83cddcbee3afaf6efc7844e2ae7f15d",
        "kl_history_egan_2.csv": "4f9d1d632c31b4e1150019295e3478938ad5f9daf4c551900b9e634002205c1d",
        "policy_egan_2.txt": "014f4178fed13860438973aa6b74bb3c5df5ee90ac157558808dc5cdd2368827",
    },
    "gan": {
        "curve_gan_4.csv": "f71e8250db296fc61cf475313f07ba83596a00ee826163ef0684af343f734e0c",
        "discriminator_gan_4.txt": "7be4c0be12e699ce3b734918126ee8b3cdadc682a1a568cfe5d0d74814812d8b",
        "gan_losses_gan_4.csv": "da3288df39443b61f66581e0b00a163808dd29050931ec615c8f3d7137eedd64",
        "generator_gan_4.txt": "ed3b782383bb92f3c42bfd6b2d4796036a2a94b1f49a2a579a5a37a8ea720358",
        "policy_gan_4.txt": "a82f4f34d747601ee6daa7a0fd3cae746785feaaed22f951409854d3da117b66",
    },
    "none": {
        "curve_none_5.csv": "8a069f45bb3b04f8f8a9b0717fa69fd85d7364cced00225a92ae9db8643f9f2e",
        "policy_none_5.txt": "b9fef46ee55365ce6bbacd3984148853105e2ccde0a2bb1fcd1c9c1e8f606ba9",
    },
}


def artifact_digests(out_dir):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in Path(out_dir).iterdir()
        if not path.name.startswith("meta_")
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_artifacts_match_golden_digests(tmp_path, name):
    assert main(["run", "--out", str(tmp_path)] + RUNS[name] + TINY_SETS) == 0
    assert artifact_digests(tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()):  # the run's summary line
                assert main(["run", "--out", out] + RUNS[name] + TINY_SETS) == 0
            digests = artifact_digests(out)
        print(f'    "{name}": {{')
        for artifact, digest in sorted(digests.items()):
            print(f'        "{artifact}": "{digest}",')
        print("    },")
    print("}")
