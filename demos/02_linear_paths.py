"""The two training paths for the banded linear model agree.

The training problem is an LP, which HiGHS solves exactly at any number of
rows.  The learners train by mini-batch subgradient descent instead.  Here
both run on the same data and land on the same training loss.
"""

import numpy as np

from censored_newsvendor import Dataset, LossSpec, TrainConfig, fit_gd, fit_lp
from censored_newsvendor.linear import training_loss
from censored_newsvendor.training import train_val_split

rng = np.random.default_rng(7)
n, p = 100, 3
X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, p - 1))])
s = X @ np.array([0.8, 0.3, -0.2]) + 0.4 * rng.normal(size=n)
s -= s.min()
dataset = Dataset(X, s)

spec = LossSpec.eps_nv(alpha=0.55, eps1=0.2, eps2=0.05)

exact = fit_lp(dataset, spec)
print("LP path     theta:", np.round(exact.theta, 4))
print("LP path     loss :", f"{training_loss(exact, dataset, spec):.6f}")

config = TrainConfig(eta=0.01, batch_size=75, seed=0, max_epochs=3000, patience=3000)
descent, trace = fit_gd(dataset, spec, config)
print("GD path     theta:", np.round(descent.theta, 4))

# compare on the split the descent actually optimized
train_idx, _ = train_val_split(n, config, np.random.default_rng(config.seed))
sub = dataset.take(train_idx)
lp_on_split = training_loss(fit_lp(sub, spec), sub, spec)
print("GD final training loss:", f"{trace.train_loss:.6f}")
print("LP optimum, same split:", f"{lp_on_split:.6f}")
print("relative excess       :", f"{trace.train_loss / lp_on_split - 1:.2e}")
