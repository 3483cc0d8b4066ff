package guide

import (
	"testing"

	"parcost/internal/dataset"
	"parcost/internal/machine"
)

// BenchmarkOracleSweep times the grid-sweep oracle layer: SimOracle.TrueTime
// over one paper problem's full DefaultGrid (33 node counts × 15 tile
// sizes), once per machine. This is the ground-truth cost a cold STQ/BQ
// sweep pays before any model predicts.
func BenchmarkOracleSweep(b *testing.B) {
	configs := dataset.DefaultGrid().Configs(dataset.Problem{O: 146, V: 1096})
	for _, spec := range []machine.Spec{machine.Aurora(), machine.Frontier()} {
		o := NewSimOracle(spec)
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, c := range configs {
					o.TrueTime(c)
				}
			}
		})
	}
}
