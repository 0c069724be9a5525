package experiments

import (
	"fmt"
	"strings"

	"tcsim/internal/core"
	"tcsim/internal/machine"
	"tcsim/internal/replace"
)

// The replacement-policy lab: the paper's combined configuration swept
// over every registered trace-cache replacement policy, with the Belady
// oracle (which precomputes future reference distances from the replayed
// trace stream) as the last row — the upper bound on what any realizable
// policy can extract from the same geometry.

// PolicyCell is one (workload, policy) measurement.
type PolicyCell struct {
	IPC   float64
	TCHit float64 // trace-cache hit rate, percent
}

// PolicyLabResult is the registry-generated policy x workload figure.
// A newly registered policy joins the sweep with no edits here.
type PolicyLabResult struct {
	// Policies is the column order: registry order with oracle policies
	// moved last, so the headroom bound always closes the table.
	Policies []string
	// Oracle flags the upper-bound columns by policy name.
	Oracle map[string]bool
	// Cells[workload][i] measures Policies[i] on that workload.
	Cells map[string][]PolicyCell
}

// PolicyVariant is the combined configuration with a specific
// trace-cache replacement policy.
func PolicyVariant(policy string) ConfigVariant {
	if err := replace.Validate(policy); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return variant("policy:"+policy, func(c *machine.Config) {
		c.Passes = core.DefaultPassSpec()
		c.TCPolicy = policy
	})
}

// policyNames returns the registered policy names, oracle policies last.
func policyNames() (names []string, oracle map[string]bool) {
	oracle = make(map[string]bool)
	var tail []string
	for _, pi := range replace.Registered() {
		if pi.Oracle {
			oracle[pi.Name] = true
			tail = append(tail, pi.Name)
			continue
		}
		names = append(names, pi.Name)
	}
	return append(names, tail...), oracle
}

// PolicyLab runs the policy x workload sweep. Oracle policies require
// future knowledge, which the runner has whenever the trace store serves
// the workload (always, for the bundled set).
func (r *Runner) PolicyLab() (*PolicyLabResult, error) {
	names, oracle := policyNames()
	res := &PolicyLabResult{
		Policies: names,
		Oracle:   oracle,
		Cells:    make(map[string][]PolicyCell),
	}
	for _, name := range names {
		stats, err := r.runAll(PolicyVariant(name))
		if err != nil {
			return nil, err
		}
		for _, w := range r.workloads() {
			st := stats[w.Name]
			res.Cells[w.Name] = append(res.Cells[w.Name], PolicyCell{
				IPC:   st.IPC,
				TCHit: 100 * st.TCHitRate,
			})
		}
	}
	return res, nil
}

// Format renders the policy lab as two matrices (IPC, then trace-cache
// hit rate), one column per policy with the oracle bound marked.
func (p *PolicyLabResult) Format(names []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "POLICIES: replacement-policy lab (combined config; * = offline upper bound)\n")
	header := func() {
		fmt.Fprintf(&b, "%-10s", "bench")
		for _, pol := range p.Policies {
			if p.Oracle[pol] {
				pol += "*"
			}
			fmt.Fprintf(&b, " %9s", pol)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintln(&b, "IPC:")
	header()
	for _, n := range names {
		fmt.Fprintf(&b, "%-10s", n)
		for _, c := range p.Cells[n] {
			fmt.Fprintf(&b, " %9.3f", c.IPC)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintln(&b, "trace-cache hit %:")
	header()
	for _, n := range names {
		fmt.Fprintf(&b, "%-10s", n)
		for _, c := range p.Cells[n] {
			fmt.Fprintf(&b, " %9.2f", c.TCHit)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
