"""Machine cost models for the simulated Origin2000-class testbed.

Every subsystem that charges virtual time (network transfers, disk/controller
transfers, file opens, database queries, per-element compute) reads its cost
parameters from a :class:`MachineModel`.  The model is deliberately small —
latency/bandwidth pairs plus fixed per-operation costs — because the paper's
results depend on the *relative* magnitude of these terms (e.g. file-open cost
vs. transfer time, one controller vs. ten), not on microarchitectural detail.

Profiles
--------

``origin2000()``
    Calibrated so the three evaluation figures of the paper keep their shape:
    aggregate parallel I/O in the low-hundreds of MB/s, single-stream I/O an
    order of magnitude lower, *low* file-open/view costs (the paper's stated
    reason levels 1/2/3 barely differ on the Origin2000).

``high_open_cost()``
    Same machine but with expensive file-open/view/close — the hypothetical
    file system the paper argues level 3 exists for.  Used by the open-cost
    ablation benchmark.

``fast_test()``
    Tiny fixed costs; used by unit tests that only check behavioural
    correctness and event ordering, not performance shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "NetworkModel",
    "ComputeModel",
    "StorageModel",
    "DatabaseModel",
    "CollectiveIOModel",
    "MachineModel",
    "origin2000",
    "high_open_cost",
    "fast_test",
]

MB = 1024.0 * 1024.0
"""One mebibyte in bytes (used throughout for bandwidth bookkeeping)."""


@dataclass
class NetworkModel:
    """Point-to-point message cost: ``latency + bytes / bandwidth``.

    Collectives are built from point-to-point messages (log-tree algorithms),
    so their cost emerges from this model rather than being parameterized
    separately.
    """

    latency: float = 15e-6
    """Per-message latency in seconds (software + wire)."""

    bandwidth: float = 160.0 * MB
    """Per-link bandwidth in bytes/second."""

    def transfer_time(self, nbytes: float) -> float:
        """Time to move ``nbytes`` over one link, including latency."""
        return self.latency + float(nbytes) / self.bandwidth


@dataclass
class ComputeModel:
    """Per-element costs of the CPU-side work SDM performs."""

    element_op: float = 2.0e-8
    """Seconds per simple per-element operation (compare, copy, hash probe).

    Roughly a 50 M element-ops/s irregular-access rate, in the right range for
    a 250 MHz R10000 chasing pointers.
    """

    memcpy_bandwidth: float = 180.0 * MB
    """Bytes/second for bulk buffer copies (pack/unpack, sieving copies)."""

    def elements(self, n: float, ops_per_element: float = 1.0) -> float:
        """Time to process ``n`` elements at ``ops_per_element`` each."""
        return float(n) * ops_per_element * self.element_op

    def copy_time(self, nbytes: float) -> float:
        """Time to memcpy ``nbytes``."""
        return float(nbytes) / self.memcpy_bandwidth


@dataclass
class StorageModel:
    """Parallel file system cost model (XFS over FC controllers).

    Concurrency is modelled at the *controller* level: the file system can
    serve ``n_controllers`` requests at full stream rate simultaneously;
    further requests queue.  A single sequential writer therefore sees one
    controller's bandwidth, while a 64-rank collective write saturates the
    aggregate — which is precisely the original-vs-SDM gap in Figure 7.
    """

    n_controllers: int = 10
    """Concurrent full-rate I/O streams (paper: 10 FibreChannel controllers)."""

    stream_read_bandwidth: float = 18.0 * MB
    """Bytes/second one request stream achieves for reads.

    Calibrated so aggregate reads land in the paper's Figure 6 range
    (~120–150 MB/s over 10 controllers) while a single sequential stream
    matches the original applications' observed rates."""

    stream_write_bandwidth: float = 12.0 * MB
    """Bytes/second one request stream achieves for writes (buffered XFS).

    Aggregate ~120 MB/s (Figure 6 writes); single stream ~12 MB/s
    (Figure 7's original application)."""

    stripe_size: int = 64 * 1024
    """Round-robin striping unit in bytes."""

    request_overhead: float = 0.8e-3
    """Fixed seconds per I/O request (client syscall + server dispatch)."""

    run_overhead: float = 60e-6
    """Extra seconds per additional noncontiguous run within one request."""

    file_open_cost: float = 1.2e-3
    """Seconds for one process to open a file (namespace lookup, locks)."""

    file_close_cost: float = 0.4e-3
    """Seconds for one process to close a file."""

    file_view_cost: float = 0.9e-3
    """Seconds to install an MPI-IO file view (datatype decode + commit)."""

    metadata_op_cost: float = 1.0e-3
    """Seconds for a namespace metadata operation (create, stat, unlink)."""

    def stream_time(self, nbytes: float, *, write: bool, runs: int = 1) -> float:
        """Service time of one request once it holds a controller."""
        bw = self.stream_write_bandwidth if write else self.stream_read_bandwidth
        extra_runs = max(int(runs) - 1, 0)
        return self.request_overhead + extra_runs * self.run_overhead + float(nbytes) / bw


@dataclass
class DatabaseModel:
    """Metadata database (MySQL in the paper) access costs."""

    connect_cost: float = 30e-3
    """Seconds to establish the connection (charged in SDM_initialize)."""

    query_cost: float = 2.5e-3
    """Fixed seconds per SQL statement (parse + network round trip)."""

    row_cost: float = 20e-6
    """Additional seconds per row returned/affected."""

    def statement_time(self, rows: int = 1) -> float:
        """Time for one statement touching ``rows`` rows."""
        return self.query_cost + max(int(rows), 0) * self.row_cost


@dataclass
class CollectiveIOModel:
    """Tunables of the two-phase collective I/O implementation (ROMIO-style)."""

    cb_buffer_size: int = 4 * 1024 * 1024
    """Collective-buffering buffer size per aggregator, in bytes."""

    cb_nodes: int = 0
    """Number of aggregator ranks; 0 means "choose automatically"
    (min(communicator size, 2 × n_controllers))."""

    ds_buffer_size: int = 512 * 1024
    """Data-sieving buffer size for independent noncontiguous access."""

    ds_threshold_gap: int = 256 * 1024
    """Hole size above which data sieving splits into separate requests."""

    coalesce_gap: int = 0
    """Largest hole (bytes) the read-side run coalescer bridges at the
    *source* rank before a request is issued: holes up to this size are
    read and discarded to save a request (the data-sieving trade, applied
    before the runs ever reach the exchange phase).  0 merges only
    exactly-adjacent runs — always beneficial, never wasteful.  The
    sentinel -1 (``repro.mpiio.runs.ADAPTIVE_GAP``) derives the gap per
    read from that read's own hole distribution."""


@dataclass
class MachineModel:
    """Complete cost model of the simulated machine."""

    name: str = "origin2000"
    network: NetworkModel = field(default_factory=NetworkModel)
    compute: ComputeModel = field(default_factory=ComputeModel)
    storage: StorageModel = field(default_factory=StorageModel)
    database: DatabaseModel = field(default_factory=DatabaseModel)
    collective_io: CollectiveIOModel = field(default_factory=CollectiveIOModel)

    def with_storage(self, **kwargs) -> "MachineModel":
        """Return a copy with selected storage parameters replaced."""
        return replace(self, storage=replace(self.storage, **kwargs))

    def with_network(self, **kwargs) -> "MachineModel":
        """Return a copy with selected network parameters replaced."""
        return replace(self, network=replace(self.network, **kwargs))

    def with_collective_io(self, **kwargs) -> "MachineModel":
        """Return a copy with selected collective-I/O parameters replaced."""
        return replace(self, collective_io=replace(self.collective_io, **kwargs))

    def aggregate_read_bandwidth(self) -> float:
        """Peak aggregate read bandwidth in bytes/second."""
        s = self.storage
        return s.n_controllers * s.stream_read_bandwidth

    def aggregate_write_bandwidth(self) -> float:
        """Peak aggregate write bandwidth in bytes/second."""
        s = self.storage
        return s.n_controllers * s.stream_write_bandwidth


def origin2000() -> MachineModel:
    """The paper's testbed: 128-proc SGI Origin2000 + XFS, low open costs."""
    return MachineModel(name="origin2000")


def high_open_cost() -> MachineModel:
    """Origin2000 compute/network but a file system with expensive opens.

    This is the hypothetical target the paper motivates level-3 organization
    with ("if a file system has high file-open and file-close costs ... SDM
    can generate a very small number of files").
    """
    m = origin2000()
    m = m.with_storage(
        file_open_cost=90e-3,
        file_close_cost=30e-3,
        file_view_cost=25e-3,
        metadata_op_cost=40e-3,
    )
    m.name = "high_open_cost"
    return m


def fast_test() -> MachineModel:
    """Cheap uniform costs for behaviour-only unit tests."""
    return MachineModel(
        name="fast_test",
        network=NetworkModel(latency=1e-6, bandwidth=1e9),
        compute=ComputeModel(element_op=1e-9, memcpy_bandwidth=1e10),
        storage=StorageModel(
            n_controllers=4,
            stream_read_bandwidth=1e9,
            stream_write_bandwidth=1e9,
            request_overhead=1e-6,
            run_overhead=1e-7,
            file_open_cost=1e-6,
            file_close_cost=1e-6,
            file_view_cost=1e-6,
            metadata_op_cost=1e-6,
        ),
        database=DatabaseModel(connect_cost=1e-6, query_cost=1e-6, row_cost=1e-8),
    )
