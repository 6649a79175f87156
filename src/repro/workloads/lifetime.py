"""VM lifetime distributions.

Fig 15 of the paper shows lifetimes from minutes to multiple years with
significant variation *within* each flavor class and only a weak relation
between VM size and lifetime.  We model lifetimes with a mixture of
log-normal components: an ephemeral mode (minutes–hours), a project mode
(days–weeks), and a persistent mode (months–years).  Profile membership
shifts the mixture weights (HANA databases skew persistent), but every class
keeps mass in all three modes, reproducing the paper's "small VMs do not
consistently live shorter" observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HOUR = 3600.0
DAY = 86_400.0
YEAR = 365.0 * DAY


@dataclass(frozen=True)
class LifetimeModel:
    """Three-component log-normal lifetime mixture.

    Each component is (weight, median_seconds, sigma) with sigma the
    log-space standard deviation.
    """

    ephemeral: tuple[float, float, float] = (0.25, 2 * HOUR, 1.2)
    project: tuple[float, float, float] = (0.40, 10 * DAY, 1.0)
    persistent: tuple[float, float, float] = (0.35, 1.5 * YEAR, 0.8)

    def __post_init__(self) -> None:
        components = (self.ephemeral, self.project, self.persistent)
        total = sum(c[0] for c in components)
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"mixture weights must sum to 1, got {total}")
        # Derived once; sample() runs for every simulated VM.
        object.__setattr__(self, "_weights", np.asarray([c[0] for c in components]))
        object.__setattr__(
            self, "_log_params", [(np.log(m), sigma) for _, m, sigma in components]
        )

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw ``n`` lifetimes in seconds."""
        choice = rng.choice(3, size=n, p=self._weights)
        out = np.empty(n)
        for i, (mu, sigma) in enumerate(self._log_params):
            mask = choice == i
            count = int(mask.sum())
            if count:
                out[mask] = rng.lognormal(mu, sigma, count)
        # Floor at one minute: sub-minute VMs don't appear in the dataset.
        return np.maximum(out, 60.0)


#: Per-profile lifetime models.  HANA and k8s infra skew long-lived; CI/CD
#: and dev environments skew short- to medium-lived.
LIFETIME_MODELS: dict[str, LifetimeModel] = {
    "hana_db": LifetimeModel(
        ephemeral=(0.05, 4 * HOUR, 1.0),
        project=(0.25, 30 * DAY, 1.0),
        persistent=(0.70, 2.0 * YEAR, 0.7),
    ),
    "abap_app": LifetimeModel(
        ephemeral=(0.10, 3 * HOUR, 1.0),
        project=(0.30, 20 * DAY, 1.0),
        persistent=(0.60, 1.5 * YEAR, 0.8),
    ),
    "cicd": LifetimeModel(
        ephemeral=(0.55, 40 * 60.0, 1.3),
        project=(0.35, 5 * DAY, 1.1),
        persistent=(0.10, 0.7 * YEAR, 0.8),
    ),
    "devenv": LifetimeModel(
        ephemeral=(0.30, 5 * HOUR, 1.2),
        project=(0.45, 12 * DAY, 1.0),
        persistent=(0.25, 1.0 * YEAR, 0.8),
    ),
    "k8s_infra": LifetimeModel(
        ephemeral=(0.10, 2 * HOUR, 1.2),
        project=(0.30, 15 * DAY, 1.0),
        persistent=(0.60, 1.8 * YEAR, 0.7),
    ),
    "general": LifetimeModel(),
}


def sample_lifetime(profile_name: str, rng: np.random.Generator) -> float:
    """Draw one lifetime (seconds) for a VM of the given profile."""
    model = LIFETIME_MODELS.get(profile_name, LIFETIME_MODELS["general"])
    return float(model.sample(rng, 1)[0])
