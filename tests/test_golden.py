"""Golden artifacts: `egan run` writes the same bytes as the recorded runs.

Every artifact of three tiny runs is checked by sha256, except
`meta_<mode>_<seed>.txt`, whose `out_dir` line names the output directory.
A refactor must leave every digest unchanged.  A change that deliberately
alters RNG consumption or floating-point evaluation order updates the digests
below, and its CHANGES.md entry names the reason.
"""

import hashlib

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
    "egan_joint": ["--mode", "egan", "--seed", "3", "--set", "joint_update=true"],
    "gan_minimax": ["--mode", "gan", "--seed", "4",
                    "--set", "gan_generator_mode=paper_minimax"],
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
    "egan_joint": {
        "curve_egan_3.csv": "6fc10536413490f80c677f58e06902f158c3e1db25b62b4868a25f7597e44f34",
        "discriminator_egan_3.txt": "c9ce96d9587b3b6946d9079a8bcad24defedc9c1340c982e4c71acacd0203d1b",
        "enhancer_egan_3.txt": "eb944abfe30ce3fc875d185e8af360557c4d1857a2955168c9670b841d11369c",
        "gan_losses_egan_3.csv": "e779e396ca38e071e325e268648c81361e5d2e900a696b7c93cc5375731aa40f",
        "generator_egan_3.txt": "86267b53efa6410ceab918e15b060006a5a2eab17340ab171276c9d1bfa7ee70",
        "kl_history_egan_3.csv": "c3e96b1ce862b48ab634778b72ff4e9f2d7ce0f8a6f718b8b1ecabd5b7215ba4",
        "policy_egan_3.txt": "ff3b42cdb1f2e8c04f450b4becfc184e1f6b210518c7dcabbc60ab56c0a965e7",
    },
    "gan_minimax": {
        "curve_gan_4.csv": "f71e8250db296fc61cf475313f07ba83596a00ee826163ef0684af343f734e0c",
        "discriminator_gan_4.txt": "43427f5ee274e0dbbdf3f0fa2ddded6b06a2bde109660b13a08a0d8b73d4f6eb",
        "gan_losses_gan_4.csv": "fda0d84efc98b9af5a5707e9b31591913dc3b1087357b47cb06d856c9f30881d",
        "generator_gan_4.txt": "a9ee8542eeb71e91436b7d0b15debf0d82c657b87fcdf29687be2bc9bd125dbe",
        "policy_gan_4.txt": "f4e52740a0b4bab234fdb77fc1a851e691212dc9070a02ae2e0b72b386fc0adf",
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_artifacts_match_golden_digests(tmp_path, name):
    assert main(["run", "--out", str(tmp_path)] + RUNS[name] + TINY_SETS) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
        if not path.name.startswith("meta_")
    }
    assert digests == GOLDEN[name]
