"""Healthcare workload: ECG similarity with LCS (Han et al. [10], the
paper's healthcare example).

Generates ECG-like beats (P wave, QRS complex, T wave) with morphology
variants, scores beat similarity with the thresholded LCS of Eq. (3)
in software and on the accelerator, and uses it to flag abnormal beats
against a normal template.

Run:  python examples/ecg_similarity_lcs.py
"""

import numpy as np

from repro.accelerator import DistanceAccelerator
from repro.backends import AcceleratorBackend
from repro.datasets import z_normalise
from repro.distances import lcs

LENGTH = 32
THRESHOLD = 0.6  # match tolerance in z-normalised units


def ecg_beat(kind: str, rng: np.random.Generator) -> np.ndarray:
    """A stylised single heartbeat."""
    t = np.linspace(0.0, 1.0, LENGTH)

    def bump(centre, width, height):
        return height * np.exp(-((t - centre) ** 2) / width)

    beat = (
        bump(0.2, 0.002, 0.25)      # P wave
        + bump(0.42, 0.0005, 1.0)   # R spike
        - bump(0.38, 0.0003, 0.3)   # Q dip
        - bump(0.46, 0.0004, 0.35)  # S dip
        + bump(0.7, 0.004, 0.4)     # T wave
    )
    if kind == "pvc":  # premature ventricular contraction: wide QRS
        beat = bump(0.42, 0.01, 1.3) - bump(0.6, 0.006, 0.6)
    elif kind == "flat_t":  # ischaemia-like flattened T wave
        beat -= bump(0.7, 0.004, 0.35)
    return z_normalise(beat + rng.normal(0.0, 0.05, LENGTH))


def main() -> None:
    rng = np.random.default_rng(3)
    template = ecg_beat("normal", rng)
    chip = AcceleratorBackend(DistanceAccelerator())

    print(f"{'beat':<8} {'LCS sw':>7} {'LCS hw':>7} {'similar?':>9}")
    accept = 0.85 * LENGTH  # similarity floor for "normal"
    for kind in ("normal", "normal", "pvc", "flat_t"):
        beat = ecg_beat(kind, rng)
        sw = lcs(template, beat, threshold=THRESHOLD)
        hw = chip.compute("lcs", template, beat, threshold=THRESHOLD)
        print(
            f"{kind:<8} {sw:>7.1f} {hw:>7.1f} "
            f"{'yes' if hw >= accept else 'NO':>9}"
        )

    # LCS handles unequal lengths: compare a truncated recording.
    short = ecg_beat("normal", rng)[: LENGTH - 8]
    sw = lcs(template, short, threshold=THRESHOLD)
    hw = chip.compute("lcs", template, short, threshold=THRESHOLD)
    print(
        f"\ntruncated beat ({LENGTH - 8} samples vs {LENGTH}): "
        f"LCS software {sw:.1f}, accelerator {hw:.1f}"
    )


if __name__ == "__main__":
    main()
