// Package params holds the timing model and experiment configuration
// for the CNI reproduction.
//
// All times are in 200 MHz processor cycles, matching the paper's
// Table 2 ("Bus Occupancy for Network Interface and Memory Access in
// Processor Cycles"): the simulated machine has a 200 MHz dual-issue
// SPARC-like processor, a 100 MHz multiplexed coherent memory bus, and
// a 50 MHz multiplexed coherent I/O bus behind an I/O bridge.
package params

import (
	"fmt"
	"strings"
)

// BusKind identifies where a network interface is attached.
type BusKind int

const (
	// CacheBus attaches the NI at the processor's cache bus: accesses
	// cost 4 cycles and consume no memory-bus bandwidth. The paper uses
	// NI2w on the cache bus as a rough performance upper bound (§5).
	CacheBus BusKind = iota
	// MemoryBus is the 100 MHz coherent memory bus.
	MemoryBus
	// IOBus is the 50 MHz coherent I/O bus behind the I/O bridge.
	IOBus
)

func (b BusKind) String() string {
	switch b {
	case CacheBus:
		return "cache"
	case MemoryBus:
		return "memory"
	case IOBus:
		return "io"
	}
	return fmt.Sprintf("BusKind(%d)", int(b))
}

// NIKind identifies one of the paper's five network interface designs
// (Table 1).
type NIKind int

const (
	// NI2w is the CM-5-like baseline: two 4-byte words of the message
	// exposed through uncachable device registers.
	NI2w NIKind = iota
	// CNI4 exposes one 256-byte network message through four cachable
	// device registers; status/control stay uncached; reuse needs the
	// explicit three-cycle handshake (§2.1).
	CNI4
	// CNI16Q is a 16-block cachable queue homed on the device.
	CNI16Q
	// CNI512Q is a 512-block cachable queue homed on the device.
	CNI512Q
	// CNI16Qm is a 512-block cachable queue homed in main memory with a
	// 16-block device cache; overflow writes back to memory (§3).
	CNI16Qm
	// DMA is this reproduction's extension: a user-level-DMA message
	// NI (SHRIMP/UDMA-like) for the comparison the paper lists as its
	// open weakness (§1). Sends post a descriptor; the device moves
	// whole messages to/from main memory; receivers are notified
	// through an interrupt-cost model. Not part of the paper's Table 1
	// taxonomy (excluded from AllNIs).
	DMA
)

func (n NIKind) String() string {
	switch n {
	case NI2w:
		return "NI2w"
	case CNI4:
		return "CNI4"
	case CNI16Q:
		return "CNI16Q"
	case CNI512Q:
		return "CNI512Q"
	case CNI16Qm:
		return "CNI16Qm"
	case DMA:
		return "DMA"
	}
	return fmt.Sprintf("NIKind(%d)", int(n))
}

// AllNIs lists the five designs in the paper's presentation order.
var AllNIs = []NIKind{NI2w, CNI4, CNI16Q, CNI512Q, CNI16Qm}

// niParseOrder drives both ParseNI and NINames, so the match table
// and the valid-values message cannot drift apart.
var niParseOrder = append(append([]NIKind{}, AllNIs...), DMA)

// NINames lists the valid CLI NI design names (paper order + DMA).
var NINames = enumNames(niParseOrder)

// ParseNI resolves a CLI NI design name (case-insensitive), failing
// with the list of valid values on a typo.
func ParseNI(s string) (NIKind, error) {
	for i, name := range NINames {
		if strings.EqualFold(s, name) {
			return niParseOrder[i], nil
		}
	}
	return 0, fmt.Errorf("params: unknown NI %q (valid: %s)", s, strings.Join(NINames, ", "))
}

// Topology selects the interconnect fabric model connecting the nodes.
type Topology int

const (
	// TopoFlat is the paper's §4.1 idealised network: topology is
	// ignored and every message takes a constant latency. The default.
	TopoFlat Topology = iota
	// TopoTorus is a 2D torus with dimension-order routing, per-link
	// FIFO arbitration, single-message-at-a-time link occupancy, and a
	// per-hop latency — the regime where the interconnect itself can be
	// the bottleneck.
	TopoTorus
)

func (t Topology) String() string {
	switch t {
	case TopoFlat:
		return "flat"
	case TopoTorus:
		return "torus"
	}
	return fmt.Sprintf("Topology(%d)", int(t))
}

// topoParseOrder drives both ParseTopology and TopologyNames, so the
// accepted set and the valid-values message cannot drift.
var topoParseOrder = []Topology{TopoFlat, TopoTorus}

// TopologyNames lists the valid CLI topology names.
var TopologyNames = enumNames(topoParseOrder)

// enumNames renders an enum slice's String() forms (one source of
// truth for the parse tables below).
func enumNames[T fmt.Stringer](kinds []T) []string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return names
}

// ParseTopology resolves a CLI topology name (empty = the default
// flat fabric), failing with the list of valid values on a typo.
func ParseTopology(s string) (Topology, error) {
	if s == "" {
		return TopoFlat, nil
	}
	for i, name := range TopologyNames {
		if s == name {
			return topoParseOrder[i], nil
		}
	}
	return TopoFlat, fmt.Errorf("params: unknown topology %q (valid: %s)", s, strings.Join(TopologyNames, ", "))
}

// ArrivalKind selects a traffic generator's arrival process
// (internal/workload).
type ArrivalKind int

const (
	// ArrivalPoisson is an open-loop Poisson process: exponentially
	// distributed inter-arrival gaps at the configured offered load,
	// generated regardless of completions.
	ArrivalPoisson ArrivalKind = iota
	// ArrivalBursty is an open-loop on/off MMPP: a two-state modulated
	// Poisson process that sends at a peak rate during exponentially
	// distributed ON periods and is silent during OFF periods, with the
	// same long-run offered load as ArrivalPoisson.
	ArrivalBursty
	// ArrivalClosed is a closed loop: per-node request/reply clients
	// that wait for each reply and think before the next request, so
	// offered load self-limits with system latency.
	ArrivalClosed
)

func (a ArrivalKind) String() string {
	switch a {
	case ArrivalPoisson:
		return "poisson"
	case ArrivalBursty:
		return "bursty"
	case ArrivalClosed:
		return "closed"
	}
	return fmt.Sprintf("ArrivalKind(%d)", int(a))
}

// arrivalParseOrder drives both ParseArrival and ArrivalNames.
var arrivalParseOrder = []ArrivalKind{ArrivalPoisson, ArrivalBursty, ArrivalClosed}

// ArrivalNames lists the valid CLI arrival-process names.
var ArrivalNames = enumNames(arrivalParseOrder)

// ParseArrival resolves a CLI arrival-process name (empty = the
// default Poisson process), failing with the list of valid values on
// a typo.
func ParseArrival(s string) (ArrivalKind, error) {
	if s == "" {
		return ArrivalPoisson, nil
	}
	for i, name := range ArrivalNames {
		if s == name {
			return arrivalParseOrder[i], nil
		}
	}
	return ArrivalPoisson, fmt.Errorf("params: unknown arrival process %q (valid: %s)", s, strings.Join(ArrivalNames, ", "))
}

// MaxZipfS caps the destination skew: at s = 10 the hottest node
// already draws > 99.9% of the traffic, and far beyond that the
// float64 CDF rounds to a degenerate distribution.
const MaxZipfS = 10

// SizeWeight is one entry of a message-size mix: user messages of
// Bytes payload drawn with probability Weight / sum(Weights).
type SizeWeight struct {
	Bytes  int
	Weight int
}

// Workload configures the deterministic traffic generators
// (internal/workload): the arrival process, the per-node offered
// load, the Zipf destination skew, and the message-size mix. The
// generators run as simulated processes, so a Workload composes with
// every NI design, bus attachment, and topology.
type Workload struct {
	// Arrival selects the arrival process.
	Arrival ArrivalKind
	// Seed drives every random draw; identical seeds give
	// byte-identical runs.
	Seed uint64
	// OfferedMBps is the per-node offered load in MB/s of user payload
	// (open-loop kinds only; the closed loop self-limits).
	OfferedMBps float64
	// ZipfS is the destination skew: node d is drawn with probability
	// proportional to 1/(d+1)^ZipfS, so node 0 is the hottest. 0 is
	// uniform; Validate caps it at MaxZipfS (beyond that the CDF
	// degenerates in float64 and every draw lands on node 0).
	ZipfS float64
	// Sizes is the message-size mix; empty uses DefaultWorkload's mix.
	Sizes []SizeWeight
	// BurstOnFrac (ArrivalBursty) is the long-run fraction of time in
	// the ON state; the peak rate is OfferedMBps / BurstOnFrac.
	BurstOnFrac float64
	// BurstOnCycles (ArrivalBursty) is the mean ON-period length.
	BurstOnCycles float64
	// Clients (ArrivalClosed) is the number of request/reply clients
	// per node, run as one aggregated weighted population
	// (internal/workload Population), which scales to millions of
	// clients per machine.
	Clients int
	// ThinkCycles (ArrivalClosed) is the mean think time between a
	// reply and the next request.
	ThinkCycles int
	// ClientZipfS (ArrivalClosed) skews the per-client
	// request weights: client c issues with weight proportional to
	// 1/(c+1)^ClientZipfS, so a small hot subset of a large population
	// carries most of the traffic. 0 is a uniform population; Validate
	// caps it at MaxZipfS like the destination skew.
	ClientZipfS float64
	// ClientWeights (ArrivalClosed), when non-empty, is an
	// explicit per-client weight vector: client c gets
	// ClientWeights[c mod len(ClientWeights)] (the vector tiles across
	// populations larger than itself). Overrides ClientZipfS.
	ClientWeights []float64
}

// DefaultWorkload is the reference traffic spec used by the load
// sweep: Poisson arrivals, a Zipf-hotspot destination distribution,
// and a small/medium/fragmented size mix.
func DefaultWorkload() Workload {
	return Workload{
		Arrival:       ArrivalPoisson,
		Seed:          1,
		OfferedMBps:   4,
		ZipfS:         1.1,
		Sizes:         []SizeWeight{{Bytes: 64, Weight: 6}, {Bytes: 244, Weight: 3}, {Bytes: 976, Weight: 1}},
		BurstOnFrac:   0.25,
		BurstOnCycles: 8192,
		Clients:       4,
		ThinkCycles:   2000,
	}
}

// MeanBytes returns the mix's mean user-message payload size.
func (w Workload) MeanBytes() float64 {
	var bytes, weight float64
	for _, s := range w.Sizes {
		bytes += float64(s.Bytes) * float64(s.Weight)
		weight += float64(s.Weight)
	}
	if weight == 0 {
		return 0
	}
	return bytes / weight
}

// Validate reports workload-spec errors.
func (w Workload) Validate() error {
	if w.Arrival != ArrivalPoisson && w.Arrival != ArrivalBursty && w.Arrival != ArrivalClosed {
		return fmt.Errorf("params: unknown arrival kind %v", w.Arrival)
	}
	if w.Arrival != ArrivalClosed && w.OfferedMBps <= 0 {
		return fmt.Errorf("params: open-loop workload needs OfferedMBps > 0, have %v", w.OfferedMBps)
	}
	if w.ZipfS < 0 || w.ZipfS > MaxZipfS {
		return fmt.Errorf("params: ZipfS must be in [0, %v], have %v", float64(MaxZipfS), w.ZipfS)
	}
	for _, s := range w.Sizes {
		if s.Bytes <= 0 || s.Weight <= 0 {
			return fmt.Errorf("params: size mix entries need positive bytes and weight, have %+v", s)
		}
	}
	if w.Arrival == ArrivalBursty {
		if w.BurstOnFrac <= 0 || w.BurstOnFrac > 1 {
			return fmt.Errorf("params: BurstOnFrac must be in (0,1], have %v", w.BurstOnFrac)
		}
		if w.BurstOnCycles <= 0 {
			return fmt.Errorf("params: bursty workload needs BurstOnCycles > 0, have %v", w.BurstOnCycles)
		}
	}
	if w.Arrival == ArrivalClosed && w.Clients <= 0 {
		return fmt.Errorf("params: closed-loop workload needs Clients > 0, have %d", w.Clients)
	}
	if w.ClientZipfS < 0 || w.ClientZipfS > MaxZipfS {
		return fmt.Errorf("params: ClientZipfS must be in [0, %v], have %v", float64(MaxZipfS), w.ClientZipfS)
	}
	for i, cw := range w.ClientWeights {
		if cw <= 0 {
			return fmt.Errorf("params: client weights must be positive, have %v at index %d", cw, i)
		}
	}
	return nil
}

// FaultPause stalls one node's NI for the cycle window [From, Until):
// arrivals queue at the fabric edge and the node's own injections
// stall until the window closes (a device hiccup — link retrain, OS
// stall — not a processor halt; the CPU keeps running).
type FaultPause struct {
	Node        int
	From, Until uint64
}

// FaultCrash kills one node's NI from cycle At onward: every message
// to or from the node is dropped at the fabric edge. The reliable
// transport's retry budget eventually declares the peer's stream dead
// and accounts undeliverable messages as such.
type FaultCrash struct {
	Node int
	At   uint64
}

// Fault-model defaults applied when a knob is left zero.
const (
	// FaultDelayCycles is the default extra in-flight delay given to a
	// reorder-selected message — several flat-network traversals, so
	// the delayed message reliably lands behind its successors.
	FaultDelayCycles = 4 * NetLatency
)

// Faults configures the deterministic fault-injection layer
// (internal/fault) and the reliable-delivery transport tier
// (internal/msg). The zero value means "off": no injector is built,
// the transport stays out of the message path, and every run is
// byte-identical to a pre-fault simulator. All randomness comes from
// Seed through a fault-private RNG stream that never touches the
// workload generators' streams.
type Faults struct {
	// Seed drives every fault draw (0 is remapped to 1). Identical
	// seeds give byte-identical fault schedules.
	Seed uint64

	// Per-message fault probabilities, evaluated once per network
	// message at the destination fabric edge, in this order (at most
	// one fires per message): drop, corrupt, duplicate, delay.
	DropProb    float64 // message vanishes in transit
	CorruptProb float64 // delivered with a checksum-detectable flip
	DupProb     float64 // delivered twice (the copy carries no window credit)
	DelayProb   float64 // held DelayCycles extra, landing out of order

	// DelayCycles is the extra in-flight time of a delay-selected
	// message; 0 uses FaultDelayCycles.
	DelayCycles uint64

	// Degraded-link window: during [DegradeFrom, DegradeUntil) every
	// link runs at LatencyX times its latency and 1/BandwidthX of its
	// bandwidth (the torus link occupancy is multiplied by BandwidthX;
	// the flat fabric has no serialisation, so only latency applies).
	// A multiplier of 0 means 1 (unchanged).
	DegradeFrom, DegradeUntil uint64
	DegradeLatencyX           float64
	DegradeBandwidthX         float64

	// Pauses and Crashes are per-node schedules.
	Pauses  []FaultPause
	Crashes []FaultCrash

	// Transport forces the reliable-delivery tier on even with no
	// faults configured, so a fault sweep's zero-fault rung measures
	// the same transport (isolating fault impact from the transport's
	// own overhead). Any injected fault enables the transport
	// implicitly.
	Transport bool
}

// Injects reports whether any fault can actually fire — i.e. whether
// the machine must build a fault injector. The zero value injects
// nothing.
func (f *Faults) Injects() bool {
	return f.DropProb > 0 || f.CorruptProb > 0 || f.DupProb > 0 || f.DelayProb > 0 ||
		f.DegradeUntil > f.DegradeFrom || len(f.Pauses) > 0 || len(f.Crashes) > 0
}

// Active reports whether the fault subsystem participates in the run
// at all (injector, reliable transport, or both). False for the zero
// value — the byte-identical off-by-default guarantee.
func (f *Faults) Active() bool { return f.Transport || f.Injects() }

// Delay returns the effective reorder delay in cycles.
func (f *Faults) Delay() uint64 {
	if f.DelayCycles > 0 {
		return f.DelayCycles
	}
	return FaultDelayCycles
}

// LatencyX returns the effective degraded-window latency multiplier.
func (f *Faults) LatencyX() float64 {
	if f.DegradeLatencyX > 1 {
		return f.DegradeLatencyX
	}
	return 1
}

// BandwidthX returns the effective degraded-window bandwidth divisor.
func (f *Faults) BandwidthX() float64 {
	if f.DegradeBandwidthX > 1 {
		return f.DegradeBandwidthX
	}
	return 1
}

// Validate reports fault-spec errors for a machine of n nodes.
func (f *Faults) Validate(nodes int) error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"DropProb", f.DropProb}, {"CorruptProb", f.CorruptProb},
		{"DupProb", f.DupProb}, {"DelayProb", f.DelayProb},
	} {
		if pr.v < 0 || pr.v >= 1 {
			return fmt.Errorf("params: fault %s must be a probability in [0, 1), have %v", pr.name, pr.v)
		}
	}
	if f.DegradeUntil > f.DegradeFrom {
		if f.DegradeLatencyX < 0 || (f.DegradeLatencyX != 0 && f.DegradeLatencyX < 1) {
			return fmt.Errorf("params: DegradeLatencyX must be >= 1 (or 0 for unchanged), have %v", f.DegradeLatencyX)
		}
		if f.DegradeBandwidthX < 0 || (f.DegradeBandwidthX != 0 && f.DegradeBandwidthX < 1) {
			return fmt.Errorf("params: DegradeBandwidthX must be >= 1 (or 0 for unchanged), have %v", f.DegradeBandwidthX)
		}
	} else if f.DegradeUntil != 0 || f.DegradeFrom != 0 {
		return fmt.Errorf("params: degrade window [%d, %d) is empty or inverted", f.DegradeFrom, f.DegradeUntil)
	}
	for _, p := range f.Pauses {
		if p.Node < 0 || p.Node >= nodes {
			return fmt.Errorf("params: pause for node %d outside [0, %d)", p.Node, nodes)
		}
		if p.Until <= p.From {
			return fmt.Errorf("params: pause window [%d, %d) for node %d is empty or inverted", p.From, p.Until, p.Node)
		}
	}
	for _, c := range f.Crashes {
		if c.Node < 0 || c.Node >= nodes {
			return fmt.Errorf("params: crash for node %d outside [0, %d)", c.Node, nodes)
		}
	}
	return nil
}

// TraceRingDefault is the per-node record-ring capacity used when
// Trace.RingSize is left zero. Records are 32 bytes, so a full ring
// costs 512 KB per node — big enough that a loadsweep-length run
// (~100k cycles) keeps every record. Rings grow as records arrive, so
// a run that writes fewer pays only for what it writes.
const TraceRingDefault = 16384

// TraceSampleDefault is the sampling period applied when a consumer
// asks for "sampling on, default cadence" (cnisim trace / --trace
// without --sample-every).
const TraceSampleDefault = 1000

// Trace configures the telemetry subsystem (internal/trace): the
// message-lifecycle recorder and the sampled time-series. The zero
// value means "off": no recorder or sampler is built, the hot path
// pays nothing, and every run is byte-identical to a pre-trace
// simulator — the same contract Faults keeps.
type Trace struct {
	// Enabled turns on message-lifecycle recording: fixed-size records
	// at inject/admit/link/deliver/ack/retransmit hooks, written into
	// per-node rings (internal/trace.Recorder) and
	// exportable as Chrome trace-event JSON for Perfetto.
	Enabled bool
	// RingSize is the per-node record-ring capacity; 0 means
	// TraceRingDefault. When a ring wraps the oldest records are
	// overwritten (the export reports how many).
	RingSize int
	// SampleEvery, when nonzero, runs the time-series sampler every
	// SampleEvery cycles: link occupancy, queue depths, window
	// occupancy, retransmit backlog, and counter deltas, exported as
	// counter tracks of the Chrome trace. Each row reads the state
	// after every event of its cycle, between slices of the machine's
	// Run, so sampling moves no event and works at every Shards value.
	// Sampling alone (Enabled false) still builds the recorder so hook
	// records and samples export together.
	SampleEvery uint64
}

// Active reports whether the telemetry subsystem participates in the
// run at all. False for the zero value — the byte-identical
// off-by-default guarantee.
func (t *Trace) Active() bool { return t.Enabled || t.SampleEvery > 0 }

// Ring returns the effective per-node ring capacity.
func (t *Trace) Ring() int {
	if t.RingSize > 0 {
		return t.RingSize
	}
	return TraceRingDefault
}

// Validate reports trace-spec errors.
func (t *Trace) Validate() error {
	if t.RingSize < 0 {
		return fmt.Errorf("params: trace RingSize must be >= 0, have %d", t.RingSize)
	}
	return nil
}

// TorusDims factors n nodes into the most nearly square W×H torus
// (W ≤ H, W·H = n). Any n ≥ 1 works; primes degrade to a 1×n ring.
func TorusDims(n int) (w, h int) {
	w = 1
	for (w+1)*(w+1) <= n {
		w++
	}
	for n%w != 0 {
		w--
	}
	return w, n / w
}

// QueueBlocks returns the exposed queue size in 64-byte blocks
// (Table 1's subscript). NI2w exposes two 4-byte words, reported
// as 0 blocks here; use ExposedWords for it.
func (n NIKind) QueueBlocks() int {
	switch n {
	case CNI4:
		return 4
	case CNI16Q, CNI16Qm:
		return 16
	case CNI512Q:
		return 512
	}
	return 0
}

// IsCQ reports whether the design manages its exposed region as an
// explicit memory-based queue (taxonomy placeholder X = Q or Qm).
func (n NIKind) IsCQ() bool {
	return n == CNI16Q || n == CNI512Q || n == CNI16Qm
}

// MemoryHomed reports whether the queue's home is main memory
// (taxonomy X = Qm).
func (n NIKind) MemoryHomed() bool { return n == CNI16Qm }

// Machine-wide architectural constants (paper §4.1).
const (
	// CPUMHz etc. document the clock ratios behind the cycle costs.
	CPUMHz    = 200
	MemBusMHz = 100
	IOBusMHz  = 50

	// BlockBytes is the cache/memory block and bus transfer size.
	BlockBytes = 64
	// ProcCacheBytes is the single-level direct-mapped processor cache.
	ProcCacheBytes = 256 * 1024

	// NetMsgBytes is the fixed network message size.
	NetMsgBytes = 256
	// HeaderBytes is the per-network-message header overhead.
	HeaderBytes = 12
	// MaxPayloadBytes is the user payload carried per network message.
	MaxPayloadBytes = NetMsgBytes - HeaderBytes
	// BlocksPerNetMsg is how many cache blocks a full message spans.
	BlocksPerNetMsg = NetMsgBytes / BlockBytes

	// NetLatency is the network traversal time in CPU cycles (from
	// injection of the last byte to arrival of the first).
	NetLatency = 100
	// NetWindow is the hardware sliding-window limit: messages in
	// flight per destination before the sender blocks for acks.
	NetWindow = 4

	// TorusHopLatency is the router traversal + wire time per torus
	// hop, in CPU cycles. Chosen so a few hops land near the flat
	// model's 100-cycle traversal.
	TorusHopLatency = 20
	// TorusLinkOccupancy is how long one 256-byte network message
	// holds a torus link (its serialisation time); a second message
	// wanting the same link queues behind it. 768 cycles is a
	// ~66 MB/s link at the 200 MHz processor clock — still generous
	// for the paper's era (CM-5 fat-tree links were ~20 MB/s) but
	// slow enough that converging flows contend under *sustained*
	// offered load, not just transient bursts: a node's two
	// dimension-order in-links together (2 × 256 B / 768 cyc
	// ≈ 133 MB/s) deliver below what its NI can drain, so the fabric
	// — not the endpoint — is the first bottleneck for hotspot
	// traffic, which is the regime the torus exists to expose (the
	// earlier 256-cycle calibration left every 16-node workload
	// NI-bound and the fabric irrelevant at saturation).
	TorusLinkOccupancy = 768

	// StoreBufferDepth models the processor's store buffer for posted
	// uncached stores; MEMBAR drains it.
	StoreBufferDepth = 8
	// BridgeBufferDepth is the I/O bridge's posted write/invalidate
	// queue.
	BridgeBufferDepth = 8

	// NI2wFIFOMsgs is the hardware FIFO depth (in 256-byte network
	// messages) of the baseline NI in each direction. The CM-5 NI had
	// very shallow buffering (on the order of a message or two); the
	// paper notes NI2w's "limited buffering in the device" forces
	// software message draining.
	NI2wFIFOMsgs = 2
	// CNI4DeviceFIFOMsgs is the device-internal queue behind the CDR
	// (the exposed region is a single message; Table 1).
	CNI4DeviceFIFOMsgs = 2

	// DMADescriptors is the DMA NI's descriptor ring depth (sends in
	// flight) and its receive-buffer depth in messages.
	DMADescriptors = 8
	// InterruptCycles is the receive-notification cost of the DMA NI:
	// vectoring, kernel entry/exit, and handler dispatch. 1000 cycles
	// (5 us at 200 MHz) is optimistic for mid-90s hardware — the
	// paper calls interrupts "relatively heavy-weight".
	InterruptCycles = 1000
)

// Table 2 bus occupancies, in processor cycles.
const (
	HitCycles = 1 // cached load/store hit (dual-issue 200 MHz core)

	UncLoadCacheBus = 4
	UncLoadMemBus   = 28
	UncLoadIOBus    = 48

	UncStoreCacheBus = 4
	UncStoreMemBus   = 12
	UncStoreIOBus    = 32

	// 64-byte block transfers.
	BlockMemBus      = 42 // any 64-byte transfer on the memory bus
	BlockIODevToProc = 76 // cache-to-cache, CNI -> processor, I/O bus
	BlockIOProcToDev = 62 // cache-to-cache, processor -> CNI, I/O bus

	// Invalidate-only transactions (address phase, no data). The MBus
	// calibration in DESIGN.md: stores to Shared/Owned blocks issue a
	// full coherent-read-invalidate instead, so these are used only for
	// the CNI4 explicit-clear handshake and receive-side queue-entry
	// invalidations by the device.
	InvalMemBus = 12
	InvalIOBus  = 32
)

// AgentClass classifies bus agents for transfer-cost selection.
type AgentClass int

const (
	ClassProc AgentClass = iota
	ClassDevice
	ClassMemory
)

func (c AgentClass) String() string {
	switch c {
	case ClassProc:
		return "proc"
	case ClassDevice:
		return "device"
	case ClassMemory:
		return "memory"
	}
	return fmt.Sprintf("AgentClass(%d)", int(c))
}

// BlockTransferCost returns the occupancy of a 64-byte transfer on the
// given bus with data flowing from supplier to requester.
func BlockTransferCost(bus BusKind, supplier, requester AgentClass) uint64 {
	switch bus {
	case MemoryBus:
		return BlockMemBus
	case IOBus:
		if supplier == ClassDevice {
			return BlockIODevToProc
		}
		return BlockIOProcToDev
	case CacheBus:
		return 4
	}
	panic("params: bad bus kind")
}

// UncachedLoadCost returns the round-trip cost of an 8-byte uncached
// load from a device on the given bus.
func UncachedLoadCost(bus BusKind) uint64 {
	switch bus {
	case CacheBus:
		return UncLoadCacheBus
	case MemoryBus:
		return UncLoadMemBus
	case IOBus:
		return UncLoadIOBus
	}
	panic("params: bad bus kind")
}

// UncachedStoreCost returns the occupancy of an 8-byte uncached store
// to a device on the given bus.
func UncachedStoreCost(bus BusKind) uint64 {
	switch bus {
	case CacheBus:
		return UncStoreCacheBus
	case MemoryBus:
		return UncStoreMemBus
	case IOBus:
		return UncStoreIOBus
	}
	panic("params: bad bus kind")
}

// InvalidateCost returns the occupancy of an address-only invalidation.
func InvalidateCost(bus BusKind) uint64 {
	switch bus {
	case CacheBus:
		return 4
	case MemoryBus:
		return InvalMemBus
	case IOBus:
		return InvalIOBus
	}
	panic("params: bad bus kind")
}

// Config selects a machine + NI configuration for one simulation run.
type Config struct {
	Nodes int     // number of nodes (paper: 16; microbenchmarks: 2)
	NI    NIKind  // which network interface design
	Bus   BusKind // where the NI is attached

	// Topology selects the interconnect fabric. The zero value
	// (TopoFlat) is the paper's constant-latency network; TopoTorus
	// adds link contention and per-hop latency.
	Topology Topology

	// Shards, when >= 1, partitions a torus machine with more than 16
	// nodes into that many shards (clamped to the node count):
	// contiguous node groups, each with its own event heap,
	// synchronised in epochs of the torus hop latency (DESIGN.md §14).
	// Results, trace exports and sampled series included, are
	// byte-identical for every Shards >= 1 value. Every
	// machine runs on the same shard driver; Flat and paper-scale
	// (<= 16 node) machines, and every machine with Shards == 0, run
	// one shard that never crosses, in the serial event order.
	Shards int

	// Snarfing enables data snarfing on the processor cache: the cache
	// loads a block from an observed writeback when it has a matching
	// tag in Invalid state (§5.1.2, CNI16Qm only in the paper).
	Snarfing bool

	// UpdateProtocol enables the paper's suggested update-based
	// enhancement (§2.2, §5.1.2): after writing a receive-queue block,
	// the CNI pushes the fresh contents onto the bus so the
	// processor's invalidated copy refills in place — the receiver's
	// poll then hits, "eliminating even the cache miss". Applies to
	// the CQ designs.
	UpdateProtocol bool

	// Ablation switches for the CQ optimisations (§2.2). All false
	// reproduces the paper's CNIs.
	NoLazyPointers bool // sender re-reads head every enqueue
	NoValidBits    bool // receiver polls the tail pointer instead
	NoSenseReverse bool // receiver explicitly clears valid bits (extra ownership traffic)

	// QueueBlocksOverride, if nonzero, replaces the NI's exposed queue
	// size (for sweep ablations).
	QueueBlocksOverride int

	// Workload, when non-nil, attaches a traffic-generator spec for
	// the workload/telemetry subsystem (internal/workload). nil for
	// the paper's fixed micro/macrobenchmarks; machine construction
	// ignores it.
	Workload *Workload

	// Faults configures the deterministic fault-injection layer and
	// the reliable-delivery transport (internal/fault, internal/msg).
	// The zero value is off and byte-identical to a pre-fault run.
	Faults Faults

	// Trace configures the telemetry subsystem (internal/trace):
	// message-lifecycle recording and the sampled time-series. The
	// zero value is off and byte-identical to a pre-trace run.
	Trace Trace
}

// Validate reports configuration errors, including the paper's
// structural constraints (§2.3, §5): CNI16Qm cannot be implemented on
// a coherent I/O bus, and only NI2w is considered on the cache bus.
func (c Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("params: need at least 2 nodes, have %d", c.Nodes)
	}
	if c.NI == CNI16Qm && c.Bus == IOBus {
		return fmt.Errorf("params: CNI16Qm cannot live on the I/O bus (memory cannot be its coherent home there)")
	}
	if c.Bus == CacheBus && c.NI != NI2w {
		return fmt.Errorf("params: only NI2w is modelled on the cache bus")
	}
	if c.Snarfing && c.NI != CNI16Qm {
		return fmt.Errorf("params: snarfing only applies to CNI16Qm (writebacks to memory)")
	}
	if c.UpdateProtocol && !c.NI.IsCQ() {
		return fmt.Errorf("params: the update-protocol extension applies to the CQ designs")
	}
	if c.Topology != TopoFlat && c.Topology != TopoTorus {
		return fmt.Errorf("params: unknown topology %v", c.Topology)
	}
	if c.Shards < 0 {
		return fmt.Errorf("params: Shards must be >= 0, have %d", c.Shards)
	}
	if c.Workload != nil {
		if err := c.Workload.Validate(); err != nil {
			return err
		}
	}
	if err := c.Faults.Validate(c.Nodes); err != nil {
		return err
	}
	if err := c.Trace.Validate(); err != nil {
		return err
	}
	return nil
}

// QueueBlocks returns the effective exposed-queue size for the run.
func (c Config) QueueBlocks() int {
	if c.QueueBlocksOverride != 0 {
		return c.QueueBlocksOverride
	}
	return c.NI.QueueBlocks()
}

// TotalQueueBlocks returns the total (memory-backed) queue capacity:
// for CNI16Qm the 512-block main-memory region; otherwise the exposed
// size.
func (c Config) TotalQueueBlocks() int {
	if c.NI == CNI16Qm {
		return 512
	}
	return c.QueueBlocks()
}

// Name renders a short label like "CNI16Qm@memory" for tables.
func (c Config) Name() string {
	s := c.NI.String() + "@" + c.Bus.String()
	if c.Snarfing {
		s += "+snarf"
	}
	if c.Topology != TopoFlat {
		s += "+" + c.Topology.String()
	}
	if c.Faults.Injects() {
		s += "+faults"
	}
	if c.Trace.Active() {
		s += "+trace"
	}
	return s
}
