"""Roll out episodes in the office gridworld and inspect the traces.

The environment is a non-Markovian decision process: the reward for entering
the office depends on whether coffee was picked up earlier, which no single
grid cell encodes. Traces are (label, reward) sequences.
"""

from collections import Counter

from prmlearn import collect_traces, label_str, shortest_path_policy
from prmlearn.cli import resolve_env

setup = resolve_env("office")
print("grid is %dx%d, start at %s" % (setup.gridmap.width, setup.gridmap.height,
                                      setup.gridmap.start))

policy = shortest_path_policy(setup.gridmap, setup.nmdp)
traces = collect_traces(setup.nmdp, policy, episodes=2000, seed=7,
                        n_episode=setup.n_episode)

print("\nfirst trace:")
for label, reward in traces[0]:
    print("  %-6s reward %g" % (label_str(label), reward))

# the delivery should be accepted (reward 1) about 90% of the time
outcomes = Counter(trace[-1][1] for trace in traces)
accepted = outcomes[1.0] / len(traces)
print("\ndelivery accepted in %.1f%% of %d episodes (expected ~90%%)"
      % (100 * accepted, len(traces)))
