package sim_test

import (
	"fmt"

	"impala/internal/automata"
	"impala/internal/sim"
)

func ExampleRun() {
	n := automata.New(8, 1)
	n.AddLiteral("needle", automata.StartAllInput, 1)
	reports, stats, _ := sim.Run(n, []byte("hay needle hay"))
	fmt.Printf("%d report(s) at byte %d over %d cycles\n",
		len(reports), reports[0].BitPos/8, stats.Cycles)
	// Output: 1 report(s) at byte 10 over 14 cycles
}
