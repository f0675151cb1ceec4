// Package cloud is the cloud-provider substrate behind the paper's third
// motivating application (§I): a provider sells virtual machine
// instances running on physical machines. Each customer expresses a
// willingness to pay for different resource amounts as a concave utility
// function, and the provider both places VMs on machines and sizes them
// to maximize revenue.
//
// The package also implements the industry-practice baseline the paper's
// introduction argues against: fixed instance tiers (t-shirt sizes)
// placed first-fit, where each customer receives exactly the tier they
// requested or nothing. The intro shows this can be a factor n^(1−β)
// from optimal for power-law payment curves; IntroGapSeries reproduces
// that series.
package cloud

import (
	"context"
	"fmt"
	"math"
	"sort"

	"aa/internal/core"
	"aa/internal/engine"
	"aa/internal/rng"
	"aa/internal/utility"
)

// Customer is one tenant with a willingness-to-pay curve.
type Customer struct {
	Name string
	// Pay is the $/hour the customer pays for a VM with x resource
	// units. Must be nonnegative, nondecreasing, concave.
	Pay utility.Func
}

// Fleet is a set of physical machines and customers to serve.
type Fleet struct {
	Machines  int     // identical physical machines (AA servers)
	Capacity  float64 // resource units per machine (e.g. vCPUs)
	Customers []Customer
}

// Validate checks the fleet is well formed.
func (f *Fleet) Validate() error {
	if f.Machines < 1 {
		return fmt.Errorf("cloud: %d machines", f.Machines)
	}
	if f.Capacity <= 0 {
		return fmt.Errorf("cloud: capacity %v", f.Capacity)
	}
	if len(f.Customers) == 0 {
		return fmt.Errorf("cloud: no customers")
	}
	for i, c := range f.Customers {
		if c.Pay == nil {
			return fmt.Errorf("cloud: customer %d (%s) has nil payment curve", i, c.Name)
		}
	}
	return nil
}

// Instance converts the fleet into an AA instance whose total utility is
// the provider's revenue rate.
func (f *Fleet) Instance() (*core.Instance, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	threads := make([]utility.Func, len(f.Customers))
	for i, c := range f.Customers {
		threads[i] = c.Pay
	}
	return &core.Instance{M: f.Machines, C: f.Capacity, Threads: threads}, nil
}

// SolveRevenue runs the paper's Algorithm 2 on the fleet's AA instance
// through the shared engine pipeline and returns the provider revenue
// (= total utility) and the assignment: VMs are sized per-customer
// instead of snapped to tiers.
func SolveRevenue(f *Fleet) (float64, core.Assignment, error) {
	in, err := f.Instance()
	if err != nil {
		return 0, core.Assignment{}, err
	}
	var resp engine.Response
	req := engine.Request{Instance: in, Backend: "assign2", WantUtility: true}
	if err := engine.Default().SolveInto(context.Background(), &req, &resp); err != nil {
		return 0, core.Assignment{}, err
	}
	return resp.Utility, resp.Assignment, nil
}

// Tier is a fixed instance size with a fixed price — the baseline's
// product catalog.
type Tier struct {
	Name  string
	Size  float64 // resource units
	Price float64 // $/hour, fixed regardless of the customer's curve
}

// DefaultTiers is a typical 4-tier catalog over a 64-unit machine, priced
// linearly in size.
func DefaultTiers(capacity float64) []Tier {
	return []Tier{
		{Name: "small", Size: capacity / 32, Price: capacity / 32},
		{Name: "medium", Size: capacity / 8, Price: capacity / 8},
		{Name: "large", Size: capacity / 4, Price: capacity / 4},
		{Name: "xlarge", Size: capacity / 2, Price: capacity / 2},
	}
}

// TierChoice records which tier a customer picked; ChooseTiers returns
// one per customer, in customer order.
type TierChoice struct {
	Tier int // index into the catalog, -1 if no tier has positive surplus
}

// ChooseTiers has each customer pick the tier maximizing their consumer
// surplus Pay(size) − price (ties to the smaller tier); customers with no
// positive-surplus tier opt out (-1).
func ChooseTiers(f *Fleet, tiers []Tier) []TierChoice {
	choices := make([]TierChoice, len(f.Customers))
	for i, c := range f.Customers {
		best, bestSurplus := -1, 0.0
		for ti, tier := range tiers {
			if tier.Size > f.Capacity {
				continue
			}
			surplus := c.Pay.Value(tier.Size) - tier.Price
			if surplus > bestSurplus+1e-12 {
				best, bestSurplus = ti, surplus
			}
		}
		choices[i] = TierChoice{Tier: best}
	}
	return choices
}

// TierRevenue places the chosen tiers first-fit-decreasing on the fleet
// and returns the provider's revenue plus the assignment (opted-out or
// unplaceable customers are parked with zero allocation). Revenue per
// placed customer is the tier's fixed price.
func TierRevenue(f *Fleet, tiers []Tier, choices []TierChoice) (float64, core.Assignment) {
	n := len(f.Customers)
	a := core.NewAssignment(n)
	residual := make([]float64, f.Machines)
	for j := range residual {
		residual[j] = f.Capacity
	}
	// First-fit decreasing by tier size.
	order := make([]int, 0, n)
	for i := range choices {
		order = append(order, i)
	}
	sort.SliceStable(order, func(x, y int) bool {
		sx, sy := -1.0, -1.0
		if t := choices[order[x]].Tier; t >= 0 {
			sx = tiers[t].Size
		}
		if t := choices[order[y]].Tier; t >= 0 {
			sy = tiers[t].Size
		}
		return sx > sy
	})
	revenue := 0.0
	for _, i := range order {
		ti := choices[i].Tier
		if ti < 0 {
			a.Server[i], a.Alloc[i] = emptiest(residual), 0
			continue
		}
		size := tiers[ti].Size
		placed := false
		for j := range residual {
			if residual[j] >= size {
				a.Server[i] = j
				a.Alloc[i] = size
				residual[j] -= size
				revenue += tiers[ti].Price
				placed = true
				break
			}
		}
		if !placed {
			a.Server[i], a.Alloc[i] = emptiest(residual), 0
		}
	}
	return revenue, a
}

func emptiest(residual []float64) int {
	best := 0
	for j := 1; j < len(residual); j++ {
		if residual[j] > residual[best] {
			best = j
		}
	}
	return best
}

// RandomFleet draws n customers with power-law payment curves
// Pay(x) = scale·x^β, β ~ U[betaLo, betaHi], scale ~ U[0.5, 2].
func RandomFleet(machines int, capacity float64, n int, betaLo, betaHi float64, r *rng.Rand) *Fleet {
	f := &Fleet{Machines: machines, Capacity: capacity}
	for i := 0; i < n; i++ {
		f.Customers = append(f.Customers, Customer{
			Name: fmt.Sprintf("tenant-%d", i),
			Pay: utility.Power{
				Scale: r.Uniform(0.5, 2),
				Beta:  r.Uniform(betaLo, betaHi),
				C:     capacity,
			},
		})
	}
	return f
}

// IntroGapPoint is one entry of the introduction's fixed-request series.
type IntroGapPoint struct {
	N          int
	FixedTotal float64 // utility of fixed z-sized requests, C·z^(β−1)
	OptTotal   float64 // optimal equal-split utility, C^β·n^(1−β)
	Ratio      float64 // Opt/Fixed = (n·z/C)^(1−β)
}

// IntroGapSeries reproduces the §I example analytically and
// computationally: n threads with f(x) = x^β on one server of capacity
// C, each requesting a fixed z. The fixed-request utility is constant in
// n while the optimum grows as n^(1−β).
func IntroGapSeries(c, z, beta float64, ns []int) []IntroGapPoint {
	out := make([]IntroGapPoint, 0, len(ns))
	for _, n := range ns {
		threads := make([]utility.Func, n)
		requests := make([]float64, n)
		for i := range threads {
			threads[i] = utility.Power{Scale: 1, Beta: beta, C: c}
			requests[i] = z
		}
		in := &core.Instance{M: 1, C: c, Threads: threads}
		fixed := core.AssignFixedRequest(in, requests).Utility(in)
		opt := core.SuperOptimal(in).Total
		ratio := math.Inf(1)
		if fixed > 0 {
			ratio = opt / fixed
		}
		out = append(out, IntroGapPoint{N: n, FixedTotal: fixed, OptTotal: opt, Ratio: ratio})
	}
	return out
}
