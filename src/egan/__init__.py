"""Synthetic experience replay for pre-training a CartPole policy-gradient agent.

A generator/discriminator pair learns the joint distribution of encoded
(state, action, next state) transitions collected by a random policy and
passed between layers as one struct-of-arrays, ``experience.Transitions``;
CartPole's reward is 1.0 on every step, so it is not encoded.  An optional
transition-consistency network refines the generator with a moment-matching
KL penalty (``enhancer.moment_kl``); the resulting samples pre-train a
REINFORCE agent, each row weighted by whether it ends in a failure, before
the agent touches the real environment.
``egan.harness`` owns that schedule: ``fit_models`` collects the buffer and
trains the nets, ``bandit_phase`` pre-trains the agent on generated batches,
and the online phase follows; ``run_experiment`` runs all three and returns
one ``Run``.  It also owns every file: ``write_run`` a run's,
``write_report`` a directory's aggregates.  ``egan run`` and ``egan report``
(``egan.cli``) are the entry points, and ``egan sweep`` is both over
pre-training lengths and seeds.
"""

__version__ = "0.1.0"
