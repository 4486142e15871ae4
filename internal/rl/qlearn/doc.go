// Package qlearn implements tabular Q-Learning (Watkins 1989) as described
// in §3.3 of the paper (Eq. 1). The paper uses it to argue that a Q-table
// cannot hold the database's state space (100^63 states for 63 metrics
// discretized into 100 bins); this implementation makes that argument
// measurable: states are coarsely discretized and hashed, and the §3.3
// ablation bench reports table blow-up and tuning quality against DDPG.
package qlearn
