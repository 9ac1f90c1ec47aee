"""Healthcare/security workload: iris authentication with Hamming
distance (Vandal & Savvides [29], the paper's healthcare example).

Iris codes are binary templates compared by Hamming distance; a probe
is accepted when the normalised distance falls below a decision
threshold.  This example generates binary iris-code-like vectors,
runs the matcher on the accelerator's row structure (with early
determination picking the best-matching enrolled identity), and
reports the accept/reject quality.

Run:  python examples/iris_authentication_hamming.py
"""

import numpy as np

from repro.accelerator import DistanceAccelerator, early_rank
from repro.backends import AcceleratorBackend
from repro.distances import hamming

CODE_LENGTH = 64
DECISION_FRACTION = 0.25  # accept below 25% differing positions


def iris_code(rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, CODE_LENGTH).astype(float)


def noisy_probe(code: np.ndarray, flip_rate: float,
                rng: np.random.Generator) -> np.ndarray:
    flips = rng.random(CODE_LENGTH) < flip_rate
    return np.where(flips, 1.0 - code, code)


def main() -> None:
    rng = np.random.default_rng(11)
    enrolled = {f"user{k}": iris_code(rng) for k in range(5)}
    matcher = AcceleratorBackend(DistanceAccelerator())

    accepts = rejects = errors = 0
    trials = 40
    for trial in range(trials):
        genuine = trial % 2 == 0
        name = f"user{trial % 5}"
        if genuine:
            probe = noisy_probe(enrolled[name], 0.08, rng)
        else:
            probe = iris_code(rng)
        distance = matcher.compute(
            "hamming", probe, enrolled[name], threshold=0.5
        )
        accepted = distance / CODE_LENGTH < DECISION_FRACTION
        if accepted == genuine:
            accepts += genuine
            rejects += not genuine
        else:
            errors += 1

    print(f"{trials} authentication attempts against 5 enrolled users")
    print(f"genuine accepted: {accepts}, impostors rejected: {rejects},"
          f" decision errors: {errors}")

    # Identification mode: early determination ranks all enrolled
    # templates in one analog settle and reads the winner at t/10.
    target = "user3"
    probe = noisy_probe(enrolled[target], 0.08, rng)
    names = list(enrolled)
    decision = early_rank(
        probe,
        [enrolled[n] for n in names],
        function="hamming",
        threshold=0.5,
    )
    winner = names[decision.early_ranking[0]]
    print(
        f"identification via early determination: probe of {target} "
        f"matched {winner} at t = t_conv/10 "
        f"(speedup {decision.speedup:.1f}x, "
        f"consistent with convergence: {decision.consistent})"
    )

    # Sanity: accelerator agrees with the software Hamming distance.
    sw = hamming(probe, enrolled[target], threshold=0.5)
    hw = matcher.compute("hamming", probe, enrolled[target], threshold=0.5)
    print(f"software HamD {sw:.0f} vs accelerator {hw:.0f}")


if __name__ == "__main__":
    main()
