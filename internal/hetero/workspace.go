package hetero

import "aa/internal/core"

// Workspace holds the core workspace a heterogeneous solve runs on, so a
// series of solves (SkewSeries) reuses one arena instead of allocating
// per instance. A Workspace is single-goroutine, like core.Workspace.
type Workspace struct {
	core core.Workspace
}

// Assign is Workspace-pooled Assign: it fills out (growing its slices
// only when the instance is larger than any seen before) and returns
// the super-optimal bound it linearized from.
func (w *Workspace) Assign(in *Instance, out *Assignment) float64 {
	return w.assign(in, out).Total
}

// assign runs core's Algorithm 2 with server j starting at Caps[j], on
// the relaxation that pools Σ C_j among threads capped at max_j C_j. The
// returned relaxation aliases the workspace.
func (w *Workspace) assign(in *Instance, out *Assignment) core.SuperOpt {
	return w.core.AssignCapacities(in.Threads, in.Caps, in.MaxCap(), in.TotalCap(), (*core.Assignment)(out))
}
