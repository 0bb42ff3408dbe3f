// Package cliflags centralizes the flag plumbing the vdr-* command-line
// tools share, so every binary spells the common knobs identically — one
// help string, one default, one chaos-arming routine — instead of eight
// drifting copies.
package cliflags

import (
	"flag"
	"fmt"

	"verticadr/internal/faults"
	"verticadr/internal/parallel"
)

// Chaos is the fault-injection pair (-chaos, -chaos-seed).
type Chaos struct {
	Enabled bool
	Seed    int64

	injector *faults.Injector
}

// ChaosFlags registers -chaos and -chaos-seed on fs.
func ChaosFlags(fs *flag.FlagSet) *Chaos {
	c := &Chaos{}
	fs.BoolVar(&c.Enabled, "chaos", false,
		"run under the standard fault-injection profile (recovery paths must absorb it)")
	fs.Int64Var(&c.Seed, "chaos-seed", 42, "seed for the chaos profile")
	return c
}

// Arm installs the chaos profile when enabled and reports whether it did.
// Call after flag parsing.
func (c *Chaos) Arm() bool {
	if !c.Enabled {
		return false
	}
	c.injector = faults.Chaos(c.Seed)
	faults.Install(c.injector)
	fmt.Printf("chaos profile armed (seed %d)\n", c.Seed)
	return true
}

// Report renders the injector's tally (what was injected where); empty
// when chaos never armed.
func (c *Chaos) Report() string {
	if c.injector == nil {
		return ""
	}
	return c.injector.String()
}

// ApplyParallelism installs -j's value as the process-default execution
// degree (no-op at 0, which keeps GOMAXPROCS).
func ApplyParallelism(j int) {
	if j > 0 {
		parallel.SetDefaultDegree(j)
	}
}

// Parallelism registers -j: the intra-node execution degree.
func Parallelism(fs *flag.FlagSet) *int {
	return fs.Int("j", 0,
		"intra-node execution degree for scans/aggregation/IRLS (0 = GOMAXPROCS); results are identical at every degree")
}

// Nodes registers -nodes: the database cluster size.
func Nodes(fs *flag.FlagSet, def int) *int {
	return fs.Int("nodes", def, "database nodes")
}

// DataDir registers -data: the durable-persistence directory.
func DataDir(fs *flag.FlagSet) *string {
	return fs.String("data", "",
		"durable mode: persist under this directory (write-ahead log + checkpoints); reopening recovers the previous state")
}

// Rows registers -rows with a tool-specific meaning.
func Rows(fs *flag.FlagSet, def int, usage string) *int {
	return fs.Int("rows", def, usage)
}
