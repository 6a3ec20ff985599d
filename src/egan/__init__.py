"""Synthetic experience replay for pre-training a CartPole policy-gradient agent.

A generator/discriminator pair learns the joint distribution of encoded
(state, action, next state) transitions collected by a random policy and
passed between layers as one struct-of-arrays, ``experience.Transitions``;
CartPole's reward is 1.0 on every step, so it is not encoded.  An optional
transition-consistency network refines the generator with a moment-matching
KL penalty (``enhancer.moment_kl``); the resulting samples pre-train a
REINFORCE agent, each row weighted by whether it ends in a failure, before
the agent touches the real environment.
``egan.harness`` owns that schedule (``run_experiment``, which returns one
``Run``) and every file it writes (``write_run``).  ``egan run``, ``egan
sweep`` and ``egan report`` (``egan.cli``) are the entry points.
"""

__version__ = "0.1.0"
