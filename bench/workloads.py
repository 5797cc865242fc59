"""The benchmark's workloads: one harness config per paper experiment family.

Every workload is a pure function of the benchmark seed, so the same seed
gives the same config and therefore the same inputs. Each also states how
many agent-environment steps one run performs, counted from the config
alone; the traced run checks that count against the layer that does the
stepping.

``size="toy"`` shrinks each workload for the benchmark's own tests.
"""

import math

NAMES = ("bandit-linear", "backtest-ddpg", "tournament")

# rounds per size; 5 arms at dim 10 as in the fig5-style README config
_BANDIT = {"full": 1000, "toy": 150}
# (days, episodes, expert pre-training updates) per size, two stocks
_BACKTEST = {"full": (70, 4, 300), "toy": (40, 2, 20)}
# (days, episodes) per size; the library defaults are 120 days, 40 episodes
_TOURNAMENT = {"full": (120, 40), "toy": (30, 3)}

_SPLIT_RATIO = 0.7           # BacktestConfig's default train/test split


def _bandit_linear(seed, size):
    rounds = _BANDIT[size]
    seeds = [2 * seed, 2 * seed + 1]
    config = {
        "kind": "bayes-regret",
        "name": "bench-bandit-linear",
        "env": {"kind": "linear", "n_arms": 5, "dim": 10, "horizon": rounds},
        "agents": [{"algorithm": "cts", "v": 1.0}, {"algorithm": "acts"},
                   {"algorithm": "uniform"}],
        "seeds": seeds,
        "params": {"rounds": rounds},
    }
    # one pull per round, per agent, per seed
    return config, len(seeds) * 3 * rounds


def _backtest_ddpg(seed, size):
    days, episodes, pretrain_steps = _BACKTEST[size]
    seeds = [3 * seed, 3 * seed + 1, 3 * seed + 2]
    # BacktestConfig's training defaults; the toy size pre-trains less
    train = {"noise_scale": 0.2, "warmup_steps": 64,
             "pretrain_steps": pretrain_steps, "pretrain_episodes": 3}
    config = {
        "kind": "backtest",
        "name": "bench-backtest-ddpg",
        "env": {"d": 2, "days": days, "vol": 0.35, "alpha": 1.8,
                "max_loss": 0.25, "seed": seed},
        "agents": [{"algorithm": a} for a in
                   ("up", "dqn", "ddpg", "cppi_ddpg", "ad_ts")],
        "seeds": seeds,
        "params": {"backtest": {"episodes": episodes, "train": train}},
    }
    n_train = math.ceil(_SPLIT_RATIO * days)
    train_days, test_days = n_train - 1, days - n_train - 1
    per_seed = (
        0                                                  # up: no env
        + episodes * train_days + test_days                # dqn
        + episodes * train_days + test_days                # ddpg
        + (train["pretrain_episodes"] + episodes) * train_days + test_days  # cppi_ddpg
        + test_days                                        # ad_ts
    )
    return config, len(seeds) * per_seed


def _tournament(seed, size):
    days, episodes = _TOURNAMENT[size]
    seeds = [2 * seed, 2 * seed + 1]
    config = {
        "kind": "tournament",
        "name": "bench-tournament",
        "agents": [{"algorithm": a} for a in
                   ("ql", "dqn", "sarsa", "cb_ts", "ac_ts")],
        "seeds": seeds,
        "params": {"days": days, "episodes": episodes},
    }
    # ql, dqn and sarsa train then evaluate; the bandit traders trade once
    per_seed = 3 * (episodes + 1) * (days - 1) + 2 * (days - 1)
    return config, len(seeds) * per_seed


# the traced counter that must equal a run's step count
STEP_LAYER = {
    "bandit-linear": "bandit_envs.pull.calls",
    "backtest-ddpg": "market_sim.step.calls",
    "tournament": "market_sim.step.calls",
}

_BUILDERS = {
    "bandit-linear": _bandit_linear,
    "backtest-ddpg": _backtest_ddpg,
    "tournament": _tournament,
}


def build(name, seed, size="full"):
    """(config dict, agent-environment steps per run) for one workload."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown workload {name!r}; choose from {list(NAMES)}")
    if seed < 0:
        raise ValueError("the benchmark seed must be non-negative")
    return _BUILDERS[name](int(seed), size)
