"""Monte Carlo reference estimates for the secrecy metrics.

Each batch draws from its own SFC64 generator, seeded by
SeedSequence([seed, batch index]), so the logical sample stream is a
pure function of (seed, batch index).  The batches, of _BATCH_SIZE
samples each but the last, always go through a thread pool of the
configured worker count and are reduced in batch-index order, so the
estimate for a given seed and sample count is the same at any worker
count.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fading import sample_ht

MC_METRICS = ("asc", "sop", "spsc")
# samples per batch, each batch one seeded stream
_BATCH_SIZE = 1 << 16


@dataclass(frozen=True)
class McConfig:
    """Sample budget, stream seed and worker decomposition."""

    samples: int
    seed: int
    jobs: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean, its standard error and the sample count."""

    mean: float
    std_error: float
    n: int


def _log2_capacity(h, mean_snr):
    # log2(1 + 4 * mean_snr * h^2) of the array h, rounded as
    # (h * 4 mean_snr) * h, then + 1, then log2, and where that SNR
    # overflows log2(4 mean_snr) + 2 log2(h), to the last bit
    with np.errstate(over="ignore"):
        cap = h * (4.0 * mean_snr)
        cap *= h
    cap += 1.0
    np.log2(cap, out=cap)
    if cap.max() == math.inf:
        big = np.isinf(cap)
        cap[big] = math.log2(4.0 * mean_snr) + 2.0 * np.log2(h[big])
    return cap


def _capacity_delta_batch(scenario, cfg, index, size):
    # log2 SNR-capacity difference for one batch; the sign carries the
    # outage information so every metric reads off the same stream
    rng = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence([cfg.seed, index])))
    bob, eve = scenario.bob, scenario.eve
    d = _log2_capacity(sample_ht(bob.fading, rng, size), bob.mean_snr)
    d -= _log2_capacity(sample_ht(eve.fading, rng, size), eve.mean_snr)
    return d


def _batches(cfg):
    full, rem = divmod(cfg.samples, _BATCH_SIZE)
    sizes = [(i, _BATCH_SIZE) for i in range(full)]
    if rem:
        sizes.append((full, rem))
    return sizes


def mc_metrics(scenario, cfg):
    """Monte Carlo ASC (bits), SOP and SPSC from one pass over the stream.

    Returns one McEstimate per name in MC_METRICS, in that order.  Each
    batch is drawn once and reduced to the sums of all three metrics.
    At target rate zero the outage event is the closed complement of
    the positive-capacity event, so SOP and SPSC sum to one exactly.
    """
    ct = scenario.target_rate

    def one(item):
        d = _capacity_delta_batch(scenario, cfg, *item)
        # both events counted, so a nan difference falls in neither
        outage = float(np.count_nonzero(d <= 0.0 if ct == 0.0 else d < ct))
        positive = float(np.count_nonzero(d > 0.0))
        np.maximum(d, 0.0, out=d)
        return [(float(np.sum(d)), float(np.sum(d * d))),
                (outage, outage), (positive, positive)]

    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        parts = list(pool.map(one, _batches(cfg)))
    return tuple(_estimate([sums[k] for sums in parts], cfg.samples)
                 for k in range(len(MC_METRICS)))


def _estimate(sums, n):
    # batch sums in index order, so the result is worker-count invariant
    s = 0.0
    s2 = 0.0
    for bs, bs2 in sums:
        s += bs
        s2 += bs2
    mean = s / n
    if n < 2:
        return McEstimate(mean, 0.0, n)
    var = max(s2 - s * s / n, 0.0) / (n - 1)
    return McEstimate(mean, math.sqrt(var / n), n)


def mc_asc(scenario, cfg):
    """Monte Carlo average secrecy capacity (bits)."""
    return mc_metrics(scenario, cfg)[0]
