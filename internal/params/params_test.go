package params

import (
	"strings"
	"testing"
)

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"one node", Config{Nodes: 1, NI: NI2w, Bus: MemoryBus}, false},
		{"two nodes ok", Config{Nodes: 2, NI: NI2w, Bus: MemoryBus}, true},
		{"Qm on io", Config{Nodes: 2, NI: CNI16Qm, Bus: IOBus}, false},
		{"Qm on memory", Config{Nodes: 2, NI: CNI16Qm, Bus: MemoryBus}, true},
		{"CNI on cache bus", Config{Nodes: 2, NI: CNI4, Bus: CacheBus}, false},
		{"NI2w on cache bus", Config{Nodes: 2, NI: NI2w, Bus: CacheBus}, true},
		{"snarf on 512Q", Config{Nodes: 2, NI: CNI512Q, Bus: MemoryBus, Snarfing: true}, false},
		{"snarf on Qm", Config{Nodes: 2, NI: CNI16Qm, Bus: MemoryBus, Snarfing: true}, true},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestQueueBlocks(t *testing.T) {
	if got := (Config{NI: CNI512Q}).QueueBlocks(); got != 512 {
		t.Errorf("CNI512Q queue = %d", got)
	}
	if got := (Config{NI: CNI16Qm}).QueueBlocks(); got != 16 {
		t.Errorf("CNI16Qm exposed queue = %d", got)
	}
	if got := (Config{NI: CNI16Qm}).TotalQueueBlocks(); got != 512 {
		t.Errorf("CNI16Qm total queue = %d", got)
	}
	if got := (Config{NI: CNI16Q, QueueBlocksOverride: 64}).QueueBlocks(); got != 64 {
		t.Errorf("override ignored: %d", got)
	}
	if NI2w.QueueBlocks() != 0 {
		t.Error("NI2w exposes words, not blocks")
	}
}

func TestTaxonomyPredicates(t *testing.T) {
	if !CNI16Q.IsCQ() || !CNI512Q.IsCQ() || !CNI16Qm.IsCQ() {
		t.Error("CQ designs misclassified")
	}
	if NI2w.IsCQ() || CNI4.IsCQ() {
		t.Error("non-CQ designs misclassified")
	}
	if !CNI16Qm.MemoryHomed() || CNI16Q.MemoryHomed() {
		t.Error("MemoryHomed wrong")
	}
}

func TestNames(t *testing.T) {
	if NI2w.String() != "NI2w" || CNI16Qm.String() != "CNI16Qm" {
		t.Error("NIKind names wrong")
	}
	if MemoryBus.String() != "memory" || IOBus.String() != "io" || CacheBus.String() != "cache" {
		t.Error("BusKind names wrong")
	}
	cfg := Config{Nodes: 2, NI: CNI16Qm, Bus: MemoryBus, Snarfing: true}
	if cfg.Name() != "CNI16Qm@memory+snarf" {
		t.Errorf("Name = %q", cfg.Name())
	}
}

func TestTable2Costs(t *testing.T) {
	// The paper's Table 2, verbatim.
	if UncachedLoadCost(CacheBus) != 4 || UncachedLoadCost(MemoryBus) != 28 || UncachedLoadCost(IOBus) != 48 {
		t.Error("uncached load costs diverge from Table 2")
	}
	if UncachedStoreCost(CacheBus) != 4 || UncachedStoreCost(MemoryBus) != 12 || UncachedStoreCost(IOBus) != 32 {
		t.Error("uncached store costs diverge from Table 2")
	}
	if BlockTransferCost(MemoryBus, ClassDevice, ClassProc) != 42 {
		t.Error("memory-bus block cost diverges from Table 2")
	}
	if BlockTransferCost(IOBus, ClassDevice, ClassProc) != 76 {
		t.Error("I/O-bus CNI->proc cost diverges from Table 2")
	}
	if BlockTransferCost(IOBus, ClassProc, ClassDevice) != 62 {
		t.Error("I/O-bus proc->CNI cost diverges from Table 2")
	}
	if BlockTransferCost(IOBus, ClassMemory, ClassDevice) != 62 {
		t.Error("memory-supplied I/O transfer should use the proc->CNI direction")
	}
}

func TestMessageGeometry(t *testing.T) {
	if MaxPayloadBytes != 244 {
		t.Errorf("MaxPayloadBytes = %d, want 244 (256 - 12)", MaxPayloadBytes)
	}
	if BlocksPerNetMsg != 4 {
		t.Errorf("BlocksPerNetMsg = %d, want 4", BlocksPerNetMsg)
	}
}

func TestTopology(t *testing.T) {
	if TopoFlat.String() != "flat" || TopoTorus.String() != "torus" {
		t.Error("topology names drifted")
	}
	if topo, err := ParseTopology("torus"); err != nil || topo != TopoTorus {
		t.Errorf("ParseTopology(torus) = %v, %v", topo, err)
	}
	if topo, err := ParseTopology(""); err != nil || topo != TopoFlat {
		t.Errorf("ParseTopology of empty = %v, %v, want the flat default", topo, err)
	}
	if _, err := ParseTopology("hypercube"); err == nil {
		t.Error("ParseTopology accepted an unknown fabric")
	}
}

func TestValidateTopology(t *testing.T) {
	cfg := Config{Nodes: 16, NI: CNI512Q, Bus: MemoryBus, Topology: TopoTorus}
	if err := cfg.Validate(); err != nil {
		t.Errorf("torus config invalid: %v", err)
	}
	cfg.Topology = Topology(99)
	if err := cfg.Validate(); err == nil {
		t.Error("unknown topology passed Validate")
	}
}

func TestConfigNameTopology(t *testing.T) {
	flat := Config{Nodes: 2, NI: CNI512Q, Bus: MemoryBus}
	if got := flat.Name(); got != "CNI512Q@memory" {
		t.Errorf("flat Name = %q; the default must not grow a topology suffix", got)
	}
	torus := flat
	torus.Topology = TopoTorus
	if got := torus.Name(); got != "CNI512Q@memory+torus" {
		t.Errorf("torus Name = %q", got)
	}
}

func TestParseNI(t *testing.T) {
	for _, name := range NINames {
		kind, err := ParseNI(name)
		if err != nil {
			t.Errorf("ParseNI(%q): %v", name, err)
		}
		if kind.String() != name {
			t.Errorf("ParseNI(%q) = %v", name, kind)
		}
		// Case-insensitive, like the CLI has always accepted.
		if lower, err := ParseNI(strings.ToLower(name)); err != nil || lower != kind {
			t.Errorf("ParseNI(%q) case-folding failed", strings.ToLower(name))
		}

	}
	if _, err := ParseNI("cni512q"); err != nil {
		t.Errorf("lower-case name rejected: %v", err)
	}
	if _, err := ParseNI("CNI1024Q"); err == nil {
		t.Error("bogus NI accepted")
	}
}

func TestWorkloadValidate(t *testing.T) {
	ok := DefaultWorkload()
	if err := ok.Validate(); err != nil {
		t.Fatalf("default workload invalid: %v", err)
	}
	cases := []struct {
		name string
		mod  func(*Workload)
	}{
		{"zero open-loop rate", func(w *Workload) { w.OfferedMBps = 0 }},
		{"negative zipf", func(w *Workload) { w.ZipfS = -1 }},
		{"degenerate zipf", func(w *Workload) { w.ZipfS = MaxZipfS + 1 }},
		{"bad size entry", func(w *Workload) { w.Sizes = []SizeWeight{{Bytes: 0, Weight: 1}} }},
		{"bursty zero on-frac", func(w *Workload) { w.Arrival = ArrivalBursty; w.BurstOnFrac = 0 }},
		{"bursty zero on-cycles", func(w *Workload) { w.Arrival = ArrivalBursty; w.BurstOnCycles = 0 }},
		{"closed zero clients", func(w *Workload) { w.Arrival = ArrivalClosed; w.Clients = 0 }},
	}
	for _, c := range cases {
		w := DefaultWorkload()
		c.mod(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("%s: expected a validation error", c.name)
		}
	}
}

func TestParseArrival(t *testing.T) {
	for _, name := range ArrivalNames {
		kind, err := ParseArrival(name)
		if err != nil || kind.String() != name {
			t.Errorf("ParseArrival(%q) = %v, %v", name, kind, err)
		}
	}
	if kind, err := ParseArrival(""); err != nil || kind != ArrivalPoisson {
		t.Error("empty arrival should default to poisson")
	}
	if _, err := ParseArrival("burst"); err == nil {
		t.Error("bogus arrival accepted")
	}
}
