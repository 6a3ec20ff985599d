"""Synthetic experience replay for pre-training a CartPole policy-gradient agent.

A generator/discriminator pair learns the joint distribution of encoded
(state, action, next state, reward) transitions collected by a random policy
and passed between layers as one struct-of-arrays, ``Transitions``;
an optional transition-consistency network refines the generator with a
moment-matching KL penalty (``moment_kl``); the resulting samples pre-train a
REINFORCE agent before it touches the real environment.  ``egan run``,
``egan sweep`` and ``egan report`` (``egan.cli``) are the entry points.
"""

from .cartpole import CartPoleState, EnvParams, reset, step
from .config import ExperimentConfig, load_config, validate
from .enhancer import (
    EnhancerModel,
    egan_refine,
    make_enhancer,
    moment_kl,
    pretrain_pipeline,
    train_enhancer,
)
from .experience import (
    Transitions,
    collect_random,
    decode_batch,
    encode_batch,
    run_episodes,
)
from .gan import GanPair, generate, make_gan, sample_noise, train_gan
from .harness import (
    LearningCurve,
    aggregate_runs,
    rolling_average,
    run_experiment,
    samples_to_threshold,
    sweep_pretrain_length,
)
from .nn import MlpNetwork, backward, forward, init_network, optimizer_step
from .policy import (
    PolicyAgent,
    discounted_returns,
    make_agent,
    pretrain_on_synthetic,
    update_on_episodes,
)

__version__ = "0.1.0"
