package fleet

import (
	"testing"

	"repro/internal/collab"
	"repro/internal/core"
	"repro/internal/features"
)

// BenchmarkFleetRun350 is one fleet.Run over the paper's 350 hosts: a
// training week uploaded over the wire, thresholds configured and
// pushed, a test week replayed with a Storm campaign on Distinct, and
// the collaborative quorum over the console's alert log. The matrices
// are generated once, outside the timer, so the figure is the
// management plane's: console, agents, wire codec and collab.
func BenchmarkFleetRun350(b *testing.B) {
	cfg := Config{
		Users:  350,
		Weeks:  2,
		Seed:   1,
		Policy: p99Policy(core.FullDiversity{}),
		Attack: &AttackPlan{Kind: AttackStorm, Feature: features.Distinct, Seed: 1},
		Collab: &collab.Config{Quorum: 3, QuorumFraction: 0.25},
	}
	cfg.Matrices = buildMats(b, cfg)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
