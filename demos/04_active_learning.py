"""Learn a reward machine actively, with reinforcement-learning-primed queries.

The active learner drives the environment itself: membership queries steer a
Q-learning agent toward realizing a specific label word, equivalence queries
run the greedy policy of the current hypothesis and look for statistical
mismatches. We learn the two-room patrol task and measure the worst-case
distance to the ground truth over all short words.
"""

from importlib import resources

from prmlearn import LearnerConfig, encoding_distance, learn_active, load_env_config, prm_to_text

setup = load_env_config(str(resources.files("prmlearn") / "assets" / "patrol.yaml"))
cfg = LearnerConfig(n_check=100, n_query=300, n_stop=30, n_episode=50, seed=1)

res = learn_active(setup.nmdp, cfg)
h = res.hypothesis
episodes = res.report.total_membership_episodes + res.report.total_equivalence_episodes
print("finished after %d rounds, %d episodes" % (len(res.report.rounds), episodes))
print(prm_to_text(h))

report = encoding_distance(h, setup.truth, max_len=4)
print("worst-case distance to truth over words up to length 4: %.4f"
      % report.distance)
if report.worst_word is not None:
    print("attained at word:", report.worst_word)
