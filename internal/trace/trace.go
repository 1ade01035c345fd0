// Package trace is the simulator's telemetry subsystem: a
// message-lifecycle recorder and a sampled time-series collector,
// both zero-overhead when disabled (the same contract internal/fault
// keeps — a zero-value params.Trace builds nothing and every run is
// byte-identical to a pre-trace simulator).
//
// The recorder is built for the hot path: hooks in the fabric edge,
// the torus links, and the reliable transport write fixed-size
// 32-byte records into per-node rings that grow on demand up to their
// capacity and then wrap. No interface{}, no closures, no allocation
// per event once a ring is full — the enabled path is pinned at 0
// allocs/event by the network conformance tests, and the
// disabled path is a single nil check. Export (export.go) renders the
// rings as Chrome trace-event JSON that Perfetto loads directly; the
// sampler (sampler.go) snapshots registered gauges and counters every
// N cycles into columnar series.
package trace

import (
	"repro/internal/sim"
)

// Kind classifies one lifecycle record. The hooks live in
// internal/network (fabric edge + torus links) and internal/msg (the
// reliable tier and user-message dispatch).
type Kind uint8

const (
	// KInject: a device process entered fabric admission (before any
	// sliding-window stall). Recorded on the source node.
	KInject Kind = 1 + iota
	// KAdmit: the fabric admitted the message (window space held,
	// SentAt stamped). Recorded on the source node; the matching
	// KDeliver closes the fragment's fabric span.
	KAdmit
	// KLinkTx: a torus link began serialising the message. Recorded on
	// the node owning the link; KLinkFree closes the link span.
	KLinkTx
	// KLinkFree: the torus link finished serialising and is free.
	KLinkFree
	// KLinkWait: the message queued behind a busy torus link.
	KLinkWait
	// KDeliver: the destination port accepted the message. Recorded on
	// the destination node.
	KDeliver
	// KDrop: the fault layer consumed the message at the destination
	// edge (injected drop or crashed endpoint).
	KDrop
	// KAck: the reliable transport sent a cumulative ack (ID carries
	// the acked sequence number).
	KAck
	// KRetx: the reliable transport retransmitted a stream head (ID
	// carries the frame's sequence number).
	KRetx
	// KUserDeliver: the messaging layer completed reassembly and
	// dispatched a user message to its handler. One record per
	// delivered user message — the unit the workload's Delivered
	// count and the export's user spans both measure.
	KUserDeliver

	kindCount
)

var kindNames = [kindCount]string{
	KInject:      "inject",
	KAdmit:       "admit",
	KLinkTx:      "link.tx",
	KLinkFree:    "link.free",
	KLinkWait:    "link.wait",
	KDeliver:     "deliver",
	KDrop:        "drop",
	KAck:         "ack",
	KRetx:        "retx",
	KUserDeliver: "user.deliver",
}

// String returns the kind's stable export name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "?"
}

// Record flags.
const (
	// FlagAck marks a transport ack frame's fabric records.
	FlagAck uint8 = 1 << iota
	// FlagDup marks a fault-injected duplicate copy's records.
	FlagDup
)

// Record is one lifecycle event: 32 bytes, fixed layout, no pointers
// — a ring of them is one pointer-free slice and writing one is a
// plain store. Src/Dst/Frag identify the network message (plus ID, the
// sender-local user-message id); Link is the torus link index for
// link records and -1 otherwise.
type Record struct {
	At    uint64 // simulated time, cycles
	ID    uint64 // user-message id (KAck/KRetx: sequence number)
	Link  int32  // torus link index, -1 when not a link record
	Src   int32
	Dst   int32
	Kind  Kind
	Frag  uint8
	Flags uint8
	_     uint8
}

// ring is one node's record ring: head counts every record ever
// written. Until the ring holds the recorder's size records, recs is
// exactly the records written (len == head) and grows by append; after
// that recs[head%size] is the next slot, and a wrapped ring keeps the
// newest records (the export reports how many were overwritten).
type ring struct {
	recs []Record
	head uint64
}

// Recorder collects lifecycle records for one machine. One ring per
// node, empty at construction and grown by the records it takes, so a
// short run on a large machine pays for what it writes, not for
// nodes × size; Note is the only hot-path entry.
type Recorder struct {
	eng   *sim.Engine
	sh    *sim.ShardSet // non-nil on sharded machines: per-node clocks
	rings []ring
	size  uint64
}

// NewRecorder builds a recorder for nodes nodes with ringSize records
// per node.
func NewRecorder(eng *sim.Engine, nodes, ringSize int) *Recorder {
	if ringSize < 1 {
		ringSize = 1
	}
	return &Recorder{eng: eng, rings: make([]ring, nodes), size: uint64(ringSize)}
}

// Nodes returns the ring count.
func (r *Recorder) Nodes() int { return len(r.rings) }

// Shard switches the recorder to per-node clocks: on a sharded
// machine each record is stamped with the clock of the shard that
// owns the noted node (records are only ever written by that shard,
// so each ring stays single-writer).
func (r *Recorder) Shard(sh *sim.ShardSet) { r.sh = sh }

// Note appends one record to node's ring, stamped with the current
// simulated time. It consumes no simulated time, and allocates only
// while node's ring is still growing toward its size (amortised by
// append's doubling); a full ring wraps without allocating.
func (r *Recorder) Note(node int, k Kind, id uint64, link, src, dst int32, frag, flags uint8) {
	eng := r.eng
	if r.sh != nil {
		eng = r.sh.Engine(node)
	}
	rg := &r.rings[node]
	rec := Record{
		At: uint64(eng.Now()), ID: id, Link: link,
		Src: src, Dst: dst, Kind: k, Frag: frag, Flags: flags,
	}
	if rg.head < r.size {
		rg.recs = append(rg.recs, rec)
	} else {
		rg.recs[rg.head%r.size] = rec
	}
	rg.head++
}

// Len returns the number of records node's ring currently holds.
func (r *Recorder) Len(node int) int {
	if h := r.rings[node].head; h < r.size {
		return int(h)
	}
	return int(r.size)
}

// Overwritten returns how many records have been lost to ring wrap
// across all nodes.
func (r *Recorder) Overwritten() uint64 {
	var n uint64
	for i := range r.rings {
		if h := r.rings[i].head; h > r.size {
			n += h - r.size
		}
	}
	return n
}

// records appends node's ring contents, oldest first, to dst.
func (r *Recorder) records(node int, dst []Record) []Record {
	rg := &r.rings[node]
	if rg.head <= r.size {
		return append(dst, rg.recs[:rg.head]...)
	}
	at := rg.head % r.size
	dst = append(dst, rg.recs[at:]...)
	return append(dst, rg.recs[:at]...)
}
