package gossip

import (
	"testing"

	"hetlb/internal/core"
)

// TestEngineStepNoalloc is the dynamic half of the //hetlb:noalloc contract
// on Engine.Step (the static half is hetlbvet's noalloc analyzer): once the
// engine has settled into steady state — loads near-balanced, scratch and
// per-machine job lists at their high-water capacities — a step must not
// allocate, for every protocol, at the paper's evaluation scale.
func TestEngineStepNoalloc(t *testing.T) {
	const m, n = 96, 768
	for _, pc := range stepBenchProtocols(m, n) {
		t.Run(pc.name, func(t *testing.T) {
			a := core.RoundRobin(pc.model)
			e := New(pc.proto, a, Config{Seed: 7})
			// Warm far past the measurement window so a late high-water
			// bump cannot land inside it.
			for s := 0; s < 20*m; s++ {
				e.Step()
			}
			if allocs := testing.AllocsPerRun(200, func() { e.Step() }); allocs != 0 {
				t.Errorf("Engine.Step (%s): %.3f allocs/run, want 0", pc.name, allocs)
			}
		})
	}
}
