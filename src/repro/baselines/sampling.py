"""Random-sampling machinery for the CBI-style baselines.

CBI's instrumentation uses geometric countdowns so the common path is a
decrement-and-test: with sampling rate 1/N, the next sample is a
geometrically distributed number of observations away.  The same
countdown drives CCI's access sampling.
"""

import math
import random

#: The default sampling rate used by CBI/CCI in the paper's comparison.
DEFAULT_SAMPLING_RATE = 1.0 / 100.0


class GeometricSampler:
    """Bernoulli(rate) sampling via geometric countdowns."""

    def __init__(self, rate=DEFAULT_SAMPLING_RATE, seed=0):
        if not 0.0 < rate <= 1.0:
            raise ValueError("sampling rate must be in (0, 1]")
        self.rate = rate
        self._rng = random.Random(seed)

    def _draw(self):
        if self.rate >= 1.0:
            return 1
        u = self._rng.random()
        # Geometric with success probability `rate`, support {1, 2, ...}.
        return max(1, int(math.ceil(math.log(1.0 - u)
                                    / math.log(1.0 - self.rate))))

    def positions(self, n):
        """Yield, in order, the indices among *n* observations that are
        sampled.

        The countdown to the first sample is the first draw, and each
        sample draws the countdown to the next, so the gaps between
        sampled positions are the sampler's successive draws.  Costs
        O(samples), whatever *n* is.
        """
        position = self._draw() - 1
        while position < n:
            yield position
            position += self._draw()
