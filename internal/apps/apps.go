// Package apps contains the paper's workloads: the two
// microbenchmarks of §5.1 (process-to-process round-trip latency and
// bandwidth) and the five macrobenchmarks of §4.2 / Table 3 (spsolve,
// gauss, em3d, moldyn, appbt).
//
// The macrobenchmarks reproduce each application's *communication
// pattern and message-size distribution* — the paper attributes every
// effect it reports to those — with computation modelled as explicit
// cycle costs. Inputs are scaled from the paper's (documented per app
// and recorded in EXPERIMENTS.md) so a full five-app × five-NI ×
// two-bus sweep runs in seconds of host time.
package apps

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// App is one macrobenchmark.
type App interface {
	// Name is the Table 3 benchmark name.
	Name() string
	// KeyComm is the Table 3 "Key Communication" column.
	KeyComm() string
	// Input describes the (scaled) input data set.
	Input() string
	// Run executes the workload on a fresh machine built for cfg and
	// returns the result. Implementations must be deterministic.
	Run(cfg params.Config) Result
}

// Result summarises one application run.
type Result struct {
	App             string
	Config          params.Config
	Cycles          sim.Time
	MemBusOccupancy sim.Time
	Messages        uint64
	NetBytes        uint64
}

// Micros converts the runtime to microseconds.
func (r Result) Micros() float64 { return machine.Microseconds(r.Cycles) }

// SpeedupOver returns base.Cycles / r.Cycles (the paper's Fig 8
// y-axis, speedup relative to NI2w on the memory bus).
func (r Result) SpeedupOver(base Result) float64 {
	return float64(base.Cycles) / float64(r.Cycles)
}

func (r Result) String() string {
	return fmt.Sprintf("%s on %s: %.0f us, %d msgs, %d net bytes",
		r.App, r.Config.Name(), r.Micros(), r.Messages, r.NetBytes)
}

// All returns the five macrobenchmarks in Table 3 order.
func All() []App {
	return []App{NewSpsolve(), NewGauss(), NewEm3d(), NewMoldyn(), NewAppbt()}
}

// ByName returns the named app.
func ByName(name string) (App, error) {
	for _, a := range All() {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("apps: unknown benchmark %q", name)
}

// StatsDump, when non-nil, is invoked with every finished run's
// statistics. Tests and the CLI's --stats flag use it; it must not
// retain the Stats beyond the call.
var StatsDump func(cfg params.Config, st *sim.Stats)

// built, when non-nil, sees every machine build constructs, so tests
// can read its counters, engine and clock after the run.
var built func(m *scenario.Machine)

// build constructs a scenario machine, panicking on invalid
// configurations (App.Run keeps the harness's no-error signature;
// call cfg.Validate first for a friendly error).
func build(cfg params.Config) *scenario.Machine {
	m, err := scenario.Build(cfg)
	if err != nil {
		panic(err)
	}
	if built != nil {
		built(m)
	}
	return m
}

// collect turns a finished scenario run into a Result.
func collect(app string, cfg params.Config, m *scenario.Machine, tr *scenario.Trace) Result {
	if StatsDump != nil {
		StatsDump(cfg, m.Stats())
	}
	return Result{
		App:             app,
		Config:          cfg,
		Cycles:          tr.Cycles(),
		MemBusOccupancy: tr.BusOccupancy,
		Messages:        tr.Counter("net.msg"),
		NetBytes:        tr.Counter("net.bytes"),
	}
}

// Rand is a small deterministic xorshift64* generator so workloads are
// reproducible across runs and platforms.
type Rand struct{ s uint64 }

// NewRand seeds a generator (seed 0 is remapped).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{s: seed}
}

// Next returns the next raw 64-bit value.
func (r *Rand) Next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("apps: Intn on non-positive n")
	}
	return int(r.Next() % uint64(n))
}

// Float returns a value in [0, 1).
func (r *Rand) Float() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}
