package core

// RandomInstance lends the package's mixed-family test instances to the
// external core_test package, whose tests compare against oracles in
// internal/check (which imports core, so they cannot live in package core).
var RandomInstance = randomInstance

// Assign2Reference is the paper's Algorithm 2 without the priced-out
// fast path, the oracle the external tests hold Assign2 to.
var Assign2Reference = assign2Reference

// Assign2Caps runs the workspace's Algorithm 2 over servers of
// capacities caps.
func (w *Workspace) Assign2Caps(gs []Linearized, caps []float64, out *Assignment) {
	w.assign2(gs, caps, out)
}

// Assign2PricedOut reports whether Algorithm 2 over caps takes the
// priced-out fast path on gs rather than sorting every thread.
func (w *Workspace) Assign2PricedOut(gs []Linearized, caps []float64) bool {
	_, ok := w.pricedIn(gs, caps)
	return ok
}
