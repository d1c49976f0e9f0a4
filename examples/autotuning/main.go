// Autotuning: tune the BigDFT magicfilter's unroll degree on two
// architectures by sweeping every degree from 1 to 12 (§V.B), the same
// exhaustive sweep Figure 7 runs. The point the paper makes: the optima
// differ per platform and the ARM sweet spot is narrow, so tuning must
// be automated rather than guided by intuition.
package main

import (
	"fmt"
	"log"

	"montblanc/internal/magicfilter"
	"montblanc/internal/platform"
)

const points = 4096

func main() {
	for _, p := range []*platform.Platform{platform.MustLookup("XeonX5550"), platform.MustLookup("Tegra2")} {
		sweep, err := magicfilter.SweepUnroll(p, points, 12)
		if err != nil {
			log.Fatal(err)
		}
		best := magicfilter.BestUnroll(sweep)
		lo, hi := magicfilter.SweetSpot(sweep, 0.15)
		fmt.Printf("=== %s ===\n", p.Name)
		fmt.Printf("  best unroll : %2d  %6.1f cycles/pt\n", best, sweep[best-1].CyclesPerPoint)
		fmt.Printf("  sweet spot  : [%d:%d]\n\n", lo, hi)
	}
	fmt.Println("Different optima per platform: porting the x86 unroll choice to the")
	fmt.Println("ARM SoC would land outside its narrow sweet spot — tune per platform.")
}
