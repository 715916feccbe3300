#!/usr/bin/env python3
"""Train on a stream, freeze a mixture of snapshots, predict on fresh data,
and keep the mixture by saving its parameter stack."""

import tempfile
from pathlib import Path

import numpy as np

from swapcal.batch import (MixturePredictor, estimate_dsmcal, estimate_saerr,
                           mixture_predict, train_mixture)
from swapcal.core import make_grid
from swapcal.forecaster import choose_n
from swapcal.harness import AdversarySpec, generate_stream


def main():
    # one fixed target so train and test share a distribution
    theta = (0.8, 0.6)
    spec = AdversarySpec(kind="iid-logistic", theta_star=theta)
    test = generate_stream(spec, 500, 2, seed=999)

    print("training horizon -> held-out batch error")
    for T, stride in ((256, 8), (1024, 32), (4096, 128)):
        n = choose_n(T, 2, "smcal")
        train = generate_stream(spec, T, 2, seed=1)
        mix = train_mixture(train, n, stride=stride)
        saerr = estimate_saerr(mix, test).value
        dcal = estimate_dsmcal(mix, test).value
        print(f"  T={T:<5} N={n}  snapshots={mix.size:>3}  "
              f"saerr={saerr:.4f}  dsmcal2={dcal:.4f}")

    rng = np.random.default_rng(7)
    x = np.array([0.5, 0.3])
    draws = [mix.grid.points[mixture_predict(mix, x, rng)] for _ in range(5)]
    print("five sampled predictions at one context:",
          [round(float(v), 3) for v in draws])

    # a mixture is its grid and parameter stack: save the stack, rebuild
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "thetas.npy"
        np.save(path, mix.thetas)
        back = MixturePredictor(make_grid(n), np.load(path))
    same = np.array_equal(back.cond_dist(0, x), mix.cond_dist(0, x))
    print(f"saved and reloaded {back.size} snapshots: same conditional "
          f"distribution at that context: {same}")


if __name__ == "__main__":
    main()
