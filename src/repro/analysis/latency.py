"""Streaming packet-latency statistics.

End-to-end latency is the NoC-level quantity behind the paper's throughput
story (providers recruited next to demand shorten routes and queue waits).
The collector hooks the network's delivery handler and keeps per-task
streaming statistics: count, mean (Welford), extremes, and a fixed-width
histogram from which quantiles are interpolated — O(1) memory per task no
matter how many packets flow.
"""


class LatencyStats:
    """Streaming summary of one latency population (µs values).

    Parameters
    ----------
    bucket_us:
        Histogram bucket width.
    num_buckets:
        Number of buckets; samples beyond the range land in the last
        (overflow) bucket, which bounds memory but caps quantile
        resolution at ``bucket_us * num_buckets``.
    """

    def __init__(self, bucket_us=250, num_buckets=400):
        if bucket_us <= 0 or num_buckets <= 0:
            raise ValueError("bucket size and count must be positive")
        self.bucket_us = bucket_us
        self.num_buckets = num_buckets
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = None
        self.maximum = None
        self._histogram = [0] * num_buckets

    def add(self, latency_us):
        """Record one sample."""
        if latency_us < 0:
            raise ValueError("latency cannot be negative")
        self.count += 1
        delta = latency_us - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (latency_us - self.mean)
        if self.minimum is None or latency_us < self.minimum:
            self.minimum = latency_us
        if self.maximum is None or latency_us > self.maximum:
            self.maximum = latency_us
        bucket = min(int(latency_us // self.bucket_us),
                     self.num_buckets - 1)
        self._histogram[bucket] += 1

    @property
    def variance(self):
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    def quantile(self, fraction):
        """Approximate quantile from the histogram (bucket midpoint).

        Returns ``None`` when no samples have been recorded.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if self.count == 0:
            return None
        target = fraction * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self._histogram):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                return (index + 0.5) * self.bucket_us
        return (self.num_buckets - 0.5) * self.bucket_us

    def summary(self):
        """Dict summary (JSON-friendly)."""
        return {
            "count": self.count,
            "mean_us": self.mean,
            "min_us": self.minimum,
            "max_us": self.maximum,
            "p50_us": self.quantile(0.5),
            "p95_us": self.quantile(0.95),
            "p99_us": self.quantile(0.99),
        }

    def __repr__(self):
        return "LatencyStats(n={}, mean={:.1f}us)".format(
            self.count, self.mean
        )


class LatencyCollector:
    """Per-task latency collection hooked into a network's deliveries.

    Wraps the network's existing delivery handler, so installation order is
    irrelevant: build the platform first, then ``LatencyCollector.install``.
    A delivery the wrapped handler rejects (returns False: a bounce) has
    not ended the packet's trip and is not a sample.
    """

    def __init__(self, bucket_us=250, num_buckets=400):
        self.bucket_us = bucket_us
        self.num_buckets = num_buckets
        self.by_task = {}
        self.overall = LatencyStats(bucket_us, num_buckets)
        self._network = None
        self._inner_handler = None

    def install(self, network):
        """Start observing deliveries on ``network``; returns self."""
        if self._network is not None:
            raise RuntimeError("collector already installed")
        self._network = network
        inner = self._inner_handler = network.deliver_handler

        def observing_handler(packet, node_id):
            # Read before the handler, which may send the packet on.
            latency = packet.latency()
            if inner is None or inner(packet, node_id) is not False:
                self._add(packet.dest_task, latency)

        network.set_deliver_handler(observing_handler)
        return self

    def uninstall(self):
        """Restore the network's original delivery handler."""
        if self._network is not None:
            self._network.set_deliver_handler(self._inner_handler)
            self._network = None
            self._inner_handler = None

    def record(self, packet):
        """Record a delivered packet's latency (ignores undelivered)."""
        self._add(packet.dest_task, packet.latency())

    def _add(self, task, latency):
        if latency is None:
            return
        self.overall.add(latency)
        stats = self.by_task.get(task)
        if stats is None:
            stats = LatencyStats(self.bucket_us, self.num_buckets)
            self.by_task[task] = stats
        stats.add(latency)

    def summary(self):
        """Per-task and overall summaries."""
        return {
            "overall": self.overall.summary(),
            "by_task": {
                task: stats.summary()
                for task, stats in sorted(self.by_task.items())
            },
        }
