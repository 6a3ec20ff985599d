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

Each command runs in its own interpreter with one BLAS thread, as
bench/run.py runs its workers.  The run cases are also checked to write the
same bytes at two threads.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# sweep sets pretrain_episodes itself, from --lengths
SWEEP_SETS = [
    "--set", "training_episodes=60",
    "--set", "gan_train_steps=20",
    "--set", "enhancer_train_steps=20",
    "--set", "synthetic_batches=5",
]
TINY_SETS = SWEEP_SETS + ["--set", "pretrain_episodes=3"]

# the CLI commands of each golden case; each writes into one output directory
COMMANDS = {
    "egan": [["run", "--mode", "egan", "--seed", "2"]],
    "gan": [["run", "--mode", "gan", "--seed", "4"]],
    "none": [["run", "--mode", "none", "--seed", "5"]],
    # a 36-row buffer: the other runs train on 64-row batches, and OpenBLAS
    # takes a different small-matrix path below 48 rows, so a change in how
    # the nets' matmuls are batched can pass the 64-row digests and still
    # move these
    "egan_p2": [["run", "--mode", "egan", "--seed", "3", "--set", "pretrain_episodes=2"]],
    "sweep": [["sweep", "--mode", "gan", "--lengths", "2,4", "--seeds", "0,1"]],
    # a threshold mode none never reaches in 60 episodes: the report's inf
    # median and its 0.0 IQR of two unreached quartiles
    "report": [["run", "--mode", "none", "--seed", "0"],
               ["run", "--mode", "none", "--seed", "1"],
               ["run", "--mode", "gan", "--seed", "4"],
               ["report", "--threshold", "20", "--window", "10"]],
}
OUT_FLAG = {"run": "--out", "sweep": "--out", "report": "--runs"}

GOLDEN = {
    "egan": {
        "curve_egan_2.csv": "cedd0d5f277b51f650efcfb0cf307d2ebce75bbca059dbc52b0c6cc01c814267",
        "discriminator_egan_2.txt": "6c337bf25c2048809a902cf24712d648ef043b43585df3726dc7b7ff7a96a464",
        "enhancer_egan_2.txt": "96f8ca26fa585032eee3dffc233d32a3ca3e1a816d3c81603eee045e314b06fb",
        "enhancer_losses_egan_2.csv": "42d4ed2472cdf42f82b1068c0b95f30bb825388eb770085298767344faeb0877",
        "gan_losses_egan_2.csv": "fb2f8bf7620ae60646d0785a06aed0b30b5835c21404ac22ec9277336292038b",
        "generator_egan_2.txt": "879cb3bd2dfbd3a8b61a66f4076e7f68fac684f60e6da70a722fddc2cf72a7f2",
        "kl_history_egan_2.csv": "5404fb9439b1b9420077a2bf55bcd7e1aea1caa4ce5e23e758edd5458f84551a",
        "policy_egan_2.txt": "ab67a627ac9324a381c170253cc9925f89255b6d512e9f393a536cb57c22716e",
    },
    "egan_p2": {
        "curve_egan_3.csv": "1d0cf110cdf581883f3c7824ceed58a01c75f7ef1822a4855a2a7dddd8f0c408",
        "discriminator_egan_3.txt": "8461a120049ac6eceb0cdb11c35d972f58bd725aaf6b6449ae0d80d48dabcf32",
        "enhancer_egan_3.txt": "a41b1c0b191d11e6e9c34f9c61e7020d6eb17f3e8c45d923f7c70050820c724d",
        "enhancer_losses_egan_3.csv": "cdbed502eb80d70be58baf52c0dc19e7dc0b1fe9ab5cde706e2cf0e9dba15748",
        "gan_losses_egan_3.csv": "1e9a734bdf702f8aa519e34a5a88bee5ded2ef0c8c1f8708fed16343f5f65cfd",
        "generator_egan_3.txt": "dc18814721268800fcb592a60ae364bc6ca8de5c33c5f23924236a77efb7f15b",
        "kl_history_egan_3.csv": "0fc22c63cea159c913c4c1f62bf3eab922ec9c96da460f273a072db2dde370ca",
        "policy_egan_3.txt": "fbfcf1f732cc53f082fabb865c0669216d46077f6aac982a144e2fe7dbce46c2",
    },
    "gan": {
        "curve_gan_4.csv": "f71e8250db296fc61cf475313f07ba83596a00ee826163ef0684af343f734e0c",
        "discriminator_gan_4.txt": "07f90d4b5cc233d84947c4ad487fd0f17052bb4bc7abe1d49b1fe7255858b9bd",
        "gan_losses_gan_4.csv": "553a7a3a78f53f671cf5be7dff6415a5b3fc5c5eadba239e0af6dd4d68b28452",
        "generator_gan_4.txt": "4e5204cd07ea3807079d37bf4a377d3fef08585054ba0b8853065f55bc0c6dc4",
        "policy_gan_4.txt": "fb02dd820e4e113737f34d4564c5fcb31840c14cf6521c0a59bfd27a2f33ab79",
    },
    "none": {
        "curve_none_5.csv": "8a069f45bb3b04f8f8a9b0717fa69fd85d7364cced00225a92ae9db8643f9f2e",
        "policy_none_5.txt": "b9fef46ee55365ce6bbacd3984148853105e2ccde0a2bb1fcd1c9c1e8f606ba9",
    },
    "report": {
        "aggregate_episodes_none.csv": "9d4319163a903c599d15d728d763a10ed643537b11861074f8a8d52eda5e93e3",
        "aggregate_none.csv": "85eab9513a1ed78f1c7c636758484af3065f14a113ab534b0ffe86d24237a4b5",
        "curve_gan_4.csv": "f71e8250db296fc61cf475313f07ba83596a00ee826163ef0684af343f734e0c",
        "curve_none_0.csv": "5032173d15e364c98ba2d11c9737c9ae128292e6e7b25504aab07640d2e3e0a1",
        "curve_none_1.csv": "44cd0f580b13ed3a7c07f458aef8bffee46e5cfc413b6048266e8acd57f03ab8",
        "discriminator_gan_4.txt": "07f90d4b5cc233d84947c4ad487fd0f17052bb4bc7abe1d49b1fe7255858b9bd",
        "gan_losses_gan_4.csv": "553a7a3a78f53f671cf5be7dff6415a5b3fc5c5eadba239e0af6dd4d68b28452",
        "generator_gan_4.txt": "4e5204cd07ea3807079d37bf4a377d3fef08585054ba0b8853065f55bc0c6dc4",
        "policy_gan_4.txt": "fb02dd820e4e113737f34d4564c5fcb31840c14cf6521c0a59bfd27a2f33ab79",
        "policy_none_0.txt": "a6c3e2edba0e751aa67c9885268068e3fea1e0527077764b7ed5926d174697ea",
        "policy_none_1.txt": "1974e88ef70b4c0537ba5b3b18aa6c0b92dc098d8a23630bba0ed91953b471eb",
        "report.csv": "1f2f2e23410fd3528fa3dd224d71012d523d5e03d8fec47d144902c340c63160",
    },
    "sweep": {
        "len_2/aggregate_episodes_gan.csv": "6cdc85f6c73160aa285aaddc84b3b3c5ba6c55e39f11a4177cb6d9fb9cd81eab",
        "len_2/aggregate_gan.csv": "f199dbe8f29e417ff79299bf1122a10083e26274422b4642b421a9ff8639c15a",
        "len_2/curve_gan_0.csv": "b0104540fc98426e89ae20e353ca450bcf9fd29e545b634060c68ccd84408765",
        "len_2/curve_gan_1.csv": "caeac77df3280f7e1dbb78bec0df75713323458fb57c80e70f3051459c4a4588",
        "len_2/discriminator_gan_0.txt": "755cfed142265aed15e8d43fb8fa7fa01018791962522d5e69f52a19d5b4d4be",
        "len_2/discriminator_gan_1.txt": "2d886658e54a3cd30388d2d517772b3f85cbd0bde0445d597b3618cae58e071f",
        "len_2/gan_losses_gan_0.csv": "c3ef283f9db3a49dd7f48d5b9b97012b1f28d21bc716fa52d0fec420fe942727",
        "len_2/gan_losses_gan_1.csv": "592e225bb18981955b6b332d8e6fe71c1c67acdbeae9b72d2450415575e108a6",
        "len_2/generator_gan_0.txt": "c389c08653a2305163f58ff6751da026af313592ef2df6d82b18e9cdab4c1e56",
        "len_2/generator_gan_1.txt": "ebcd43f661cf87e0e25f061377f82267941860682a02103ea90c06e4e5902764",
        "len_2/policy_gan_0.txt": "a6c3e2edba0e751aa67c9885268068e3fea1e0527077764b7ed5926d174697ea",
        "len_2/policy_gan_1.txt": "1974e88ef70b4c0537ba5b3b18aa6c0b92dc098d8a23630bba0ed91953b471eb",
        "len_2/report.csv": "8a763a3292d155fe95f08847e184d278dd7d6e5e20eceed246ca1c39503a7bbd",
        "len_4/aggregate_episodes_gan.csv": "6cdc85f6c73160aa285aaddc84b3b3c5ba6c55e39f11a4177cb6d9fb9cd81eab",
        "len_4/aggregate_gan.csv": "3e66a8acb28dbee0e71e0a0b032fa1676f38579e26fbcc6ba2741f27fc554f47",
        "len_4/curve_gan_0.csv": "d8dd63e20bc3a707b594f22594f65ceaff2be16dd425ed316e9a4cf24f742806",
        "len_4/curve_gan_1.csv": "e062bb69f954e445062fbb163e4cc174fa7799fbdeb8ea07da5ff1293660ece7",
        "len_4/discriminator_gan_0.txt": "3bdf19b661c72af2ab166fb8a7eb134dffaae63e2371e56cac91cae41005b053",
        "len_4/discriminator_gan_1.txt": "ff1990bc84ac18aad71760c02097cc385967fd7f09dfca5fbe125238c380f734",
        "len_4/gan_losses_gan_0.csv": "dc27557f7127ed51fd0838c5c5c7020fcff175312bf0bde76b43c068a4d3ae1f",
        "len_4/gan_losses_gan_1.csv": "40d2d88382cd59f7e6fd5298d691a0e6e325323c683a3ef8056bbb66f16fcdc1",
        "len_4/generator_gan_0.txt": "df5b1a4d7e2c9cece2d0fee216ba636252c3b203ddf82d75a6e89eddc7995680",
        "len_4/generator_gan_1.txt": "f9107a0e2cdca2a1d0788cc1b7c4d07b75eddcc9baf5873db9b6fe7a4eca6d97",
        "len_4/policy_gan_0.txt": "a6c3e2edba0e751aa67c9885268068e3fea1e0527077764b7ed5926d174697ea",
        "len_4/policy_gan_1.txt": "1974e88ef70b4c0537ba5b3b18aa6c0b92dc098d8a23630bba0ed91953b471eb",
        "len_4/report.csv": "8a763a3292d155fe95f08847e184d278dd7d6e5e20eceed246ca1c39503a7bbd",
    },
}


def produce(name, out_dir, blas_threads) -> None:
    """Run the CLI commands of one golden case into out_dir, each in its own
    interpreter with blas_threads BLAS threads."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **dict.fromkeys(BLAS_THREAD_VARS, str(blas_threads)))
    for argv in COMMANDS[name]:
        # a case's own --set follows TINY_SETS, so it wins
        extra = {"report": [], "sweep": SWEEP_SETS}.get(argv[0], TINY_SETS)
        args = argv[:1] + extra + argv[1:] + [OUT_FLAG[argv[0]], str(out_dir)]
        proc = subprocess.run([sys.executable, "-m", "egan.cli", *args], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


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
    produce(name, tmp_path, 1)
    assert artifact_digests(tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", ["egan", "egan_p2", "gan", "none"])
def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, name):
    """The tiny runs write the same bytes at 1 and 2 BLAS threads.  In egan
    this rests on nn.backward summing the refinement's 6000-row weight
    gradient without BLAS, which a threaded OpenBLAS would split."""
    for threads in (1, 2):
        produce(name, tmp_path / str(threads), threads)
    assert artifact_digests(tmp_path / "1") == artifact_digests(tmp_path / "2")


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(COMMANDS):
        with tempfile.TemporaryDirectory() as out:
            produce(name, out, 1)
            digests = artifact_digests(out)
        print(f'    "{name}": {{')
        for artifact, digest in sorted(digests.items()):
            print(f'        "{artifact}": "{digest}",')
        print("    },")
    print("}")
