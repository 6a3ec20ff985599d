"""Synthetic experience replay for pre-training a CartPole policy-gradient agent.

A generator/discriminator pair learns the joint distribution of encoded
(state, action, next state, reward) transitions collected by a random policy
and passed between layers as one struct-of-arrays, ``experience.Transitions``;
an optional transition-consistency network refines the generator with a
moment-matching KL penalty (``enhancer.moment_kl``); the resulting samples
pre-train a REINFORCE agent before it touches the real environment.
``egan.harness`` owns that schedule (``pretrain_pipeline``,
``run_experiment``).  ``egan run``, ``egan sweep`` and ``egan report``
(``egan.cli``) are the entry points.
"""

__version__ = "0.1.0"
