"""Analytic timing model for the paper's two evaluation platforms.

Table 2 of the paper lists the testbeds: an RTX 2080 Ti machine and an
A100 machine.  Absolute times on a simulator are meaningless, so the
model's job is to reproduce *ratios*: speedups of optimized vs baseline
workloads (Tables 3/4) and profiling overheads (Figure 6).  Ratios are
governed by each card's relative FP32/FP64 throughput and memory
bandwidths, which we take from the published specifications:

============  =========== =========== ============ =========
card          FP32 GFLOPs FP64 GFLOPs device GB/s  PCIe GB/s
============  =========== =========== ============ =========
RTX 2080 Ti   13450       420 (1/32)  616 (GDDR6)  12
A100          19500       9700 (1/2)  1555 (HBM2)  22
============  =========== =========== ============ =========

The two asymmetries the paper leans on both fall out of these numbers:
eliminating FP64 work helps the 2080 Ti far more (backprop, Section
8.5), and reducing memory traffic helps the 2080 Ti more because its
bandwidth is lower (Section 7).

Kernel time follows a roofline: ``launch_overhead + max(compute_time,
memory_time)`` with a fixed achievable-fraction derating.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class KernelStats:
    """Work counters accumulated while a kernel executes."""

    threads: int = 0
    loads: int = 0
    stores: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0
    fp32_ops: float = 0.0
    fp64_ops: float = 0.0
    int_ops: float = 0.0

    @property
    def bytes_accessed(self) -> int:
        """Total device-memory bytes moved by the kernel."""
        return self.bytes_loaded + self.bytes_stored

    def merge(self, other: "KernelStats") -> "KernelStats":
        """Return the element-wise sum of two stats (for aggregation)."""
        return KernelStats(
            threads=self.threads + other.threads,
            loads=self.loads + other.loads,
            stores=self.stores + other.stores,
            bytes_loaded=self.bytes_loaded + other.bytes_loaded,
            bytes_stored=self.bytes_stored + other.bytes_stored,
            fp32_ops=self.fp32_ops + other.fp32_ops,
            fp64_ops=self.fp64_ops + other.fp64_ops,
            int_ops=self.int_ops + other.int_ops,
        )


@dataclass(frozen=True)
class Platform:
    """An analytic cost model for one GPU platform (one Table 2 row)."""

    name: str
    sm_count: int
    fp32_gflops: float
    fp64_gflops: float
    int_giops: float
    mem_bandwidth_gbs: float
    pcie_bandwidth_gbs: float
    #: Device-to-device link bandwidth for peer copies (NVLink bridge on
    #: the 2080 Ti, NVLink3 on the A100) — faster than PCIe, slower than
    #: local device memory.
    p2p_bandwidth_gbs: float = 50.0
    kernel_launch_us: float = 4.0
    memcpy_latency_us: float = 8.0
    malloc_us: float = 2.0
    memset_latency_us: float = 6.0
    #: Fraction of peak a real kernel achieves; cancels in every ratio.
    efficiency: float = 0.25
    #: Host-side throughput used by the overhead model for CPU-side
    #: processing of measurement records (records/second).
    cpu_record_rate: float = 4.0e7
    #: GPU-side throughput of the parallel interval-merge data-processing
    #: kernel (intervals/second) — much higher than the CPU rate because
    #: the merge runs with thousands of threads (paper Section 6.1).
    gpu_interval_rate: float = 5.0e9

    def kernel_time(self, stats: KernelStats) -> float:
        """Roofline kernel time in seconds."""
        compute = (
            stats.fp32_ops / (self.fp32_gflops * 1e9)
            + stats.fp64_ops / (self.fp64_gflops * 1e9)
            + stats.int_ops / (self.int_giops * 1e9)
        ) / self.efficiency
        memory = stats.bytes_accessed / (self.mem_bandwidth_gbs * 1e9) / self.efficiency
        return self.kernel_launch_us * 1e-6 + max(compute, memory)

    def memcpy_time(self, nbytes: int, over_pcie: bool) -> float:
        """Time of a memory copy in seconds."""
        bandwidth = self.pcie_bandwidth_gbs if over_pcie else self.mem_bandwidth_gbs
        return self.memcpy_latency_us * 1e-6 + nbytes / (bandwidth * 1e9)

    def memcpy_p2p_time(self, nbytes: int) -> float:
        """Time of a device-to-device peer copy in seconds."""
        return self.memcpy_latency_us * 1e-6 + nbytes / (self.p2p_bandwidth_gbs * 1e9)

    def memset_time(self, nbytes: int) -> float:
        """Time of a device memset in seconds."""
        return self.memset_latency_us * 1e-6 + nbytes / (self.mem_bandwidth_gbs * 1e9)

    def malloc_time(self) -> float:
        """Fixed cost of a device allocation in seconds."""
        return self.malloc_us * 1e-6


RTX_2080_TI = Platform(
    name="RTX 2080 Ti",
    sm_count=72,
    fp32_gflops=13450.0,
    fp64_gflops=420.0,
    int_giops=13450.0,
    mem_bandwidth_gbs=616.0,
    pcie_bandwidth_gbs=12.0,
)

A100 = Platform(
    name="A100",
    sm_count=108,
    fp32_gflops=19500.0,
    fp64_gflops=9700.0,
    int_giops=19500.0,
    mem_bandwidth_gbs=1555.0,
    pcie_bandwidth_gbs=22.0,
    p2p_bandwidth_gbs=300.0,
)

#: The two platforms of Table 2, in paper order.
EVALUATION_PLATFORMS = (RTX_2080_TI, A100)

#: Platform by the short name the CLI and the job API accept.
PLATFORMS = {"2080ti": RTX_2080_TI, "a100": A100}


@dataclass
class TimeBreakdown:
    """Accumulated application time split the way Table 3 reports it."""

    kernel_time: float = 0.0
    memory_time: float = 0.0
    kernel_time_by_name: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        """Kernel plus memory time."""
        return self.kernel_time + self.memory_time

    def add_kernel(self, name: str, seconds: float) -> None:
        """Accumulate one launch's time under its kernel name."""
        self.kernel_time += seconds
        self.kernel_time_by_name[name] = (
            self.kernel_time_by_name.get(name, 0.0) + seconds
        )

    def add_memory(self, seconds: float) -> None:
        """Accumulate one memory API's time."""
        self.memory_time += seconds
