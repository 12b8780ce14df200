"""Learn a reward machine passively from policy rollouts.

The learner only sees (label, reward) traces collected under a fixed policy;
it builds an observation table, closes it, and reads a machine off the
compatibility classes. We compare the learned coffee-delivery probability
against the ground truth (0.9).
"""

from prmlearn import PassiveConfig, learn_passive, parse_label, prm_to_text
from prmlearn.cli import resolve_env, resolve_policy

setup = resolve_env("office")
policy = resolve_policy("shortest-path", setup)

res = learn_passive(setup.nmdp, policy, episodes=5000,
                    cfg=PassiveConfig(n_check=100, n_episode=setup.n_episode, seed=3))
h = res.hypothesis
print("learned machine over states:", h.states)
print(prm_to_text(h))

C, O = parse_label("c"), parse_label("o")
dist = h.next_reward_distribution((C,), O)
print("learned acceptance probability: %.3f (truth 0.9)" % dist.get(1.0, 0.0))
