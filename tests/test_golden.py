"""Golden artifacts: `egan run`, `egan sweep` and `egan report` write the same
bytes as the recorded runs.

Every artifact of one tiny run per mode, of one tiny sweep and of one report
over tiny runs is checked by sha256, except `meta_<mode>_<seed>.txt`, whose
`out_dir` line names the output directory.
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

# the CLI commands of each golden case; each writes into one output directory
COMMANDS = {
    "egan": [["run", "--mode", "egan", "--seed", "2"]],
    "gan": [["run", "--mode", "gan", "--seed", "4"]],
    "none": [["run", "--mode", "none", "--seed", "5"]],
    # 32-row GAN batches: the other runs all use 64 rows, and OpenBLAS takes a
    # different small-matrix path at 32, so a change in how the nets' matmuls
    # are batched can pass the 64-row digests and still move these
    "egan_b32": [["run", "--mode", "egan", "--seed", "3", "--set", "gan_batch_size=32"]],
    "sweep": [["sweep", "--mode", "gan", "--lengths", "2,4", "--seeds", "0,1"]],
    # a threshold mode none never reaches in 60 episodes: the report's inf and nan
    "report": [["run", "--mode", "none", "--seed", "0"],
               ["run", "--mode", "none", "--seed", "1"],
               ["run", "--mode", "gan", "--seed", "4"],
               ["report", "--threshold", "20", "--window", "10"]],
}
OUT_FLAG = {"run": "--out", "sweep": "--out", "report": "--runs"}

GOLDEN = {
    "egan": {
        "curve_egan_2.csv": "cedd0d5f277b51f650efcfb0cf307d2ebce75bbca059dbc52b0c6cc01c814267",
        "discriminator_egan_2.txt": "cf6f5c719356795ba7d83653cba2585a09e03c815bca0c4544ededb818c12527",
        "enhancer_egan_2.txt": "d6e256c3ca73ea13e6762463ca46f1ba02f207c5d160304d9a329f4ce66ffc16",
        "gan_losses_egan_2.csv": "7c244ef307421172e6178257f0cb82c141ec254ebce02cd545b3ad1ac695370f",
        "generator_egan_2.txt": "61228c39c69950336c661b0ab7057e208f77e292995c3dfe80f5257694683f1b",
        "kl_history_egan_2.csv": "89ff94ae9dab4c73cb6729736fe11349d9670e22873887eb871e125414d2fcb8",
        "policy_egan_2.txt": "fd1eb275443e57db37fc1a2aeca16dbe733c6fb617aa5e70cdcdb6bf6a2e18b0",
    },
    "egan_b32": {
        "curve_egan_3.csv": "6fc10536413490f80c677f58e06902f158c3e1db25b62b4868a25f7597e44f34",
        "discriminator_egan_3.txt": "9f939343999259cce8621b0110dbf8eb57f735746b29ba2b4e6657bfda8abe27",
        "enhancer_egan_3.txt": "f681f6a87e37664a71aa9ed04fb30447dec7580496dc4505e00a7d49faad9b6f",
        "gan_losses_egan_3.csv": "ffd9280662f4ed7e6b65712b563e4552e020437371f31604f96055ca1c264f62",
        "generator_egan_3.txt": "bef3a0994153a66648df36e19e4c048bee499333e980acad3bc568f70bbb9b2e",
        "kl_history_egan_3.csv": "bc06eda6a72f883d5a494a1e1961efcf9d6605f421e7bcccbbb8e02da4eed65f",
        "policy_egan_3.txt": "9599b41a01d5b9595fbef558e3ceb190c645074180ec54ef5510d806b46e7b75",
    },
    "gan": {
        "curve_gan_4.csv": "f71e8250db296fc61cf475313f07ba83596a00ee826163ef0684af343f734e0c",
        "discriminator_gan_4.txt": "92f23f49be58155dffd28816b585cbeef7d2b330edbf00f0177fea33f3e3e11b",
        "gan_losses_gan_4.csv": "964f1da97adf8f3296741973aa3939ac7650f58fb856c9102380596075a92047",
        "generator_gan_4.txt": "db22fec39554c6513c3f131036f40a7f6dadfb80e1d8fcc3fe4e7c0943c177e2",
        "policy_gan_4.txt": "1b25b123fe173e3f8805a700238961f78e881c3c8b4fc5c8a842bb51db7e370d",
    },
    "none": {
        "curve_none_5.csv": "8a069f45bb3b04f8f8a9b0717fa69fd85d7364cced00225a92ae9db8643f9f2e",
        "policy_none_5.txt": "b9fef46ee55365ce6bbacd3984148853105e2ccde0a2bb1fcd1c9c1e8f606ba9",
    },
    "report": {
        "aggregate_none.csv": "85eab9513a1ed78f1c7c636758484af3065f14a113ab534b0ffe86d24237a4b5",
        "curve_gan_4.csv": "f71e8250db296fc61cf475313f07ba83596a00ee826163ef0684af343f734e0c",
        "curve_none_0.csv": "5032173d15e364c98ba2d11c9737c9ae128292e6e7b25504aab07640d2e3e0a1",
        "curve_none_1.csv": "44cd0f580b13ed3a7c07f458aef8bffee46e5cfc413b6048266e8acd57f03ab8",
        "discriminator_gan_4.txt": "92f23f49be58155dffd28816b585cbeef7d2b330edbf00f0177fea33f3e3e11b",
        "gan_losses_gan_4.csv": "964f1da97adf8f3296741973aa3939ac7650f58fb856c9102380596075a92047",
        "generator_gan_4.txt": "db22fec39554c6513c3f131036f40a7f6dadfb80e1d8fcc3fe4e7c0943c177e2",
        "policy_gan_4.txt": "1b25b123fe173e3f8805a700238961f78e881c3c8b4fc5c8a842bb51db7e370d",
        "policy_none_0.txt": "a6c3e2edba0e751aa67c9885268068e3fea1e0527077764b7ed5926d174697ea",
        "policy_none_1.txt": "1974e88ef70b4c0537ba5b3b18aa6c0b92dc098d8a23630bba0ed91953b471eb",
        "report.csv": "d6c992ed58af76815063eaedcce7460557fb6bcf2663ff9cace2fd191ffd84ee",
    },
    "sweep": {
        "len_2/curve_gan_0.csv": "d02f16fa935a747a52b3056fead5d788db178e7c1a9e6cf65804afd80c86e507",
        "len_2/curve_gan_1.csv": "0522858b5b646c3ac85212cf5a5511e9fb7d1fc21c66da7e07f5097a96143548",
        "len_4/curve_gan_0.csv": "d8dd63e20bc3a707b594f22594f65ceaff2be16dd425ed316e9a4cf24f742806",
        "len_4/curve_gan_1.csv": "e062bb69f954e445062fbb163e4cc174fa7799fbdeb8ea07da5ff1293660ece7",
        "sweep_episodes_2.csv": "ed062c636e38ce35421f27c98d68cd0da64a8704df9d4d93e2f618fafec784c1",
        "sweep_episodes_4.csv": "6cdc85f6c73160aa285aaddc84b3b3c5ba6c55e39f11a4177cb6d9fb9cd81eab",
        "sweep_samples_2.csv": "cc94f3ed85c9502b36372fb1d628178776dcd3c8529420201342f056ccd86d4b",
        "sweep_samples_4.csv": "3e66a8acb28dbee0e71e0a0b032fa1676f38579e26fbcc6ba2741f27fc554f47",
    },
}


def produce(name, out_dir) -> None:
    """Run the CLI commands of one golden case into out_dir."""
    for argv in COMMANDS[name]:
        extra = [] if argv[0] == "report" else TINY_SETS
        assert main(argv + [OUT_FLAG[argv[0]], str(out_dir)] + extra) == 0


def artifact_digests(out_dir):
    """sha256 of every file under out_dir but the meta files, by relative path."""
    root = Path(out_dir)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in root.rglob("*")
        if path.is_file() and not path.name.startswith("meta_")
    }


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_run_artifacts_match_golden_digests(tmp_path, name):
    produce(name, tmp_path)
    assert artifact_digests(tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(COMMANDS):
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()):  # the commands' summary lines
                produce(name, out)
            digests = artifact_digests(out)
        print(f'    "{name}": {{')
        for artifact, digest in sorted(digests.items()):
            print(f'        "{artifact}": "{digest}",')
        print("    },")
    print("}")
