package scheme

import (
	"testing"

	"atscale/internal/arch"
	"atscale/internal/telemetry"
	"atscale/internal/walker"
)

// TestTracedSchemeWalks: under every scheme, a traced walk records one
// "walk" span holding one slice per performed PTE load (durations summing
// to the walk's cycles) and closes it with the walk's outcome. The walks
// cover a cold walk, a same-block neighbour (Victima's block hit), a
// fault, a budget abort, and on NUMA instances walks after migrating to
// node 1 (under Mitosis, a replica miss with its master fallback).
func TestTracedSchemeWalks(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			var mut func(*arch.SystemConfig)
			if name == "mitosis" {
				mut = numa2
			}
			f := newFixture(t, name, mut)
			va := arch.VAddr(0x4000_0000)
			f.mapPage(t, va, arch.Page4K)
			f.mapPage(t, va+0x1000, arch.Page4K)
			proc := telemetry.New().Process("unit")
			f.inst.EnableTrace(proc, func() uint64 { return 0 })
			trk := proc.Track("walker")

			root := f.pt.Root()
			walk := func(va arch.VAddr, budget uint64, want string) walker.Result {
				t.Helper()
				from := len(trk.Events())
				r := f.inst.Walk(va, root, budget)
				checkWalkSpan(t, trk.Events()[from:], r, want)
				return r
			}
			walk(va, walker.NoBudget, "ok")
			if r := walk(va+0x1000, walker.NoBudget, "ok"); name == "victima" && !r.BlockHit {
				t.Error("neighbour walk missed the PTE block")
			}
			walk(va+0x2000, walker.NoBudget, "fault")
			walk(va, 1, "aborted")
			if m, ok := f.inst.(Migratory); ok {
				m.SetNode(1)
				walk(va, walker.NoBudget, "ok")
				m.SetNode(0)
				m.SetNode(1) // flush the PSCs so the next walk enters at the root
				// Under mitosis the replica now holds va but not its
				// neighbour: a replica prefix, then the master walk.
				if r := walk(va+0x1000, walker.NoBudget, "ok"); name == "mitosis" && r.Loads <= 4 {
					t.Errorf("replica-miss walk took %d loads, want the prefix plus a master walk", r.Loads)
				}
			}
		})
	}
}

// checkWalkSpan checks one walk's events: Begin(walk), r.Loads slices
// whose durations sum to r.Cycles, then End with the outcome argument.
func checkWalkSpan(t *testing.T, ev []telemetry.Event, r walker.Result, outcome string) {
	t.Helper()
	if len(ev) != r.Loads+2 {
		t.Fatalf("%d events for a %d-load walk, want %d: %+v", len(ev), r.Loads, r.Loads+2, ev)
	}
	if ev[0].Ph != telemetry.PhBegin || ev[0].Name != "walk" {
		t.Errorf("first event = %+v, want Begin(walk)", ev[0])
	}
	var cycles uint64
	for _, e := range ev[1 : len(ev)-1] {
		if e.Ph != telemetry.PhComplete || e.ArgName != "loc" || e.ArgStr == "" {
			t.Errorf("load slice = %+v, want X with a loc arg", e)
		}
		cycles += e.Dur
	}
	if cycles != r.Cycles {
		t.Errorf("slice durations sum to %d, walk took %d cycles", cycles, r.Cycles)
	}
	end := ev[len(ev)-1]
	if end.Ph != telemetry.PhEnd || end.ArgName != "outcome" || end.ArgStr != outcome {
		t.Errorf("end event = %+v, want End with outcome=%s", end, outcome)
	}
}
