package main

import "time"

// hostChaseNs measures the sandbox, not the program: the time of one
// dependent load in a chain that visits 32 MiB in a scattered order.
// The cores are shared with other tenants through the memory system,
// and this figure drifts by a quarter over minutes on the reference
// box; every out/ file carries it, so that two runs can be told apart
// from two states of the host.
func hostChaseNs() float64 {
	const n = 1 << 23
	next := make([]uint32, n)
	for i := range next {
		next[i] = (uint32(i)*1664525 + 1013904223) % n // full-period LCG: one cycle through all n
	}
	const steps = 1 << 21
	i := uint32(0)
	t0 := time.Now()
	for k := 0; k < steps; k++ {
		i = next[i]
	}
	ns := float64(time.Since(t0)) / steps
	if i == n { // never true; keeps the chain alive
		return 0
	}
	return ns
}
