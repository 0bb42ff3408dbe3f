// Package faults is a seeded, deterministic fault-injection layer for the
// transfer/scheduling pipeline. The paper's stack tolerates failures by
// design — Vertica recovers node loss through k-safe buddy projections and
// Distributed R re-executes failed tasks on surviving workers — and the
// recovery paths grown into this reproduction (vft retransmission and chunk
// dedup, dr task retry and worker failover, yarn request deadlines) need a
// way to be exercised repeatably. An Injector holds rules armed at named
// sites ("vft.send", "dr.task", ...); instrumented layers consult the
// process-wide checker through Check, which is a single atomic load plus a
// nil test when no injector is installed — disabled by default at zero
// overhead.
//
// Three fault kinds cover the failure modes the pipeline recovers from:
//
//   - Error: the site returns an injected error (a dropped send, a failed
//     query) that retry/retransmit paths must absorb;
//   - Delay: the site stalls for a fixed duration (network jitter, a slow
//     disk) without failing;
//   - Crash: the site returns ErrCrash, which the Distributed R scheduler
//     interprets as the death of the worker running the task — it marks the
//     worker dead and re-executes its tasks on survivors.
//
// Rules trigger either probabilistically (Prob, from the injector's seeded
// RNG) or deterministically (EveryN hits), optionally capped by Limit. With
// EveryN rules the number of fired faults is an exact function of the number
// of site visits, which keeps chaos tests reproducible even when the visits
// themselves interleave nondeterministically across goroutines.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"verticadr/internal/telemetry"
)

// Injection observability: one counter per (site, kind) that fired.
var mInjected = func(site, kind string) *telemetry.Counter {
	return telemetry.Default().Counter("faults_injected_total",
		telemetry.L("site", site), telemetry.L("kind", kind))
}

// Named injection sites consulted across the pipeline. Sites are plain
// strings so layers can add private ones, but the shared names live here to
// keep chaos profiles and tests in one vocabulary.
const (
	// SiteVFTSend fires in vft.Hub.Send after a chunk is staged — the
	// receiver accepted the bytes but the ack is lost, so the sender must
	// retransmit and the hub's (part, seq) dedup must absorb the duplicate.
	SiteVFTSend = "vft.send"
	// SiteDRTask fires inside the worker executor just before a task body
	// runs; a Crash here kills the worker.
	SiteDRTask = "dr.task"
	// SiteODBCQuery fires at the start of an ODBC range query.
	SiteODBCQuery = "odbc.query"
	// SiteODBCRow fires per served segment slice inside the ODBC row stream.
	SiteODBCRow = "odbc.row"
	// SiteYarnRequest fires on container requests (a resource-manager
	// hiccup).
	SiteYarnRequest = "yarn.request"
	// SiteModelLoad fires in the model manager's DFS fetch path, on cache
	// misses only — a flaky blob read the serving layer must surface as a
	// typed error rather than a hang or a poisoned cache entry.
	SiteModelLoad = "models.load"
	// SiteWALAppend fires in wal.Writer.Append before a record is framed
	// into the log buffer — a Crash here models the process dying before
	// the write reached the log at all (the commit must not be acked).
	SiteWALAppend = "wal.append"
	// SiteWALFsync fires in the group-commit syncer just before the batched
	// write+fsync — a Crash here models the process dying with records
	// buffered but not durable; every waiter in the batch must see the
	// failure and no commit may be acknowledged.
	SiteWALFsync = "wal.fsync"
	// SiteWALCheckpoint fires at the start of a checkpoint — a Crash here
	// must leave the previous checkpoint and the whole log intact, so
	// recovery still replays from the old marker.
	SiteWALCheckpoint = "wal.checkpoint"
)

// ErrInjected is the root of every injected error; recovery code that wants
// to know whether a failure was synthetic can errors.Is against it.
var ErrInjected = errors.New("injected fault")

// ErrCrash marks an injected crash: the component that hit it is considered
// dead, not merely failed. It wraps ErrInjected.
var ErrCrash = fmt.Errorf("injected crash: %w", ErrInjected)

// Kind selects what an armed rule does when it fires.
type Kind uint8

// Fault kinds.
const (
	// Error returns Rule.Err (or a generic ErrInjected wrapper).
	Error Kind = iota
	// Delay sleeps Rule.Delay and succeeds.
	Delay
	// Crash returns an ErrCrash wrapper.
	Crash
)

// String names the kind for telemetry labels and reports.
func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case Delay:
		return "delay"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// Rule arms one fault at one site. Exactly one of Prob / EveryN selects the
// trigger: Prob fires independently per hit with the given probability from
// the injector's seeded RNG; EveryN > 0 fires deterministically on every Nth
// hit. Limit > 0 caps the total number of fires.
type Rule struct {
	Site   string
	Kind   Kind
	Prob   float64
	EveryN int
	Limit  int
	Delay  time.Duration // Delay kind: how long to stall
	Err    error         // Error kind: error to return (default ErrInjected wrapper)
}

// armed is a rule plus its trigger state.
type armed struct {
	Rule
	hits  int
	fires int
}

// Checker is the interface layers consult; Injector implements it, and tests
// may install custom checkers.
type Checker interface {
	// Check reports the fault to inject at site, or nil to proceed normally.
	Check(site string) error
}

// Injector is a seeded collection of armed rules. All trigger decisions come
// from one mutex-guarded RNG, so a fixed seed plus a fixed visit count yields
// a fixed fault sequence.
type Injector struct {
	seed  int64
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[string][]*armed
}

var _ Checker = (*Injector)(nil)

// New creates an empty injector on the given seed.
func New(seed int64) *Injector {
	return &Injector{seed: seed, rng: rand.New(rand.NewSource(seed)), rules: map[string][]*armed{}}
}

// Seed returns the injector's seed (reports, reproduction instructions).
func (in *Injector) Seed() int64 { return in.seed }

// Arm installs a rule. Multiple rules may share a site; each is evaluated on
// every hit.
func (in *Injector) Arm(r Rule) error {
	if r.Site == "" {
		return fmt.Errorf("faults: rule needs a site")
	}
	if r.EveryN < 0 || r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("faults: rule for %q has invalid trigger (prob=%v, everyN=%d)", r.Site, r.Prob, r.EveryN)
	}
	if r.EveryN == 0 && r.Prob == 0 {
		return fmt.Errorf("faults: rule for %q would never fire", r.Site)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[r.Site] = append(in.rules[r.Site], &armed{Rule: r})
	return nil
}

// MustArm is Arm for static profiles; it panics on invalid rules.
func (in *Injector) MustArm(r Rule) {
	if err := in.Arm(r); err != nil {
		panic(err)
	}
}

// Check implements Checker: it advances every rule armed at site and returns
// the injected error, if any. Delays are served before returning; when a
// delay rule and an error rule both fire on the same hit the stall happens
// first, then the error surfaces — a slow failure.
func (in *Injector) Check(site string) error {
	in.mu.Lock()
	rules := in.rules[site]
	if len(rules) == 0 {
		in.mu.Unlock()
		return nil
	}
	var stall time.Duration
	var err error
	for _, r := range rules {
		r.hits++
		fire := false
		if r.EveryN > 0 {
			fire = r.hits%r.EveryN == 0
		} else {
			fire = in.rng.Float64() < r.Prob
		}
		if !fire || (r.Limit > 0 && r.fires >= r.Limit) {
			continue
		}
		r.fires++
		mInjected(site, r.Kind.String()).Inc()
		switch r.Kind {
		case Delay:
			stall += r.Delay
		case Crash:
			err = fmt.Errorf("faults: site %s: %w", site, ErrCrash)
		case Error:
			if r.Err != nil {
				err = fmt.Errorf("faults: site %s: %w", site, r.Err)
			} else {
				err = fmt.Errorf("faults: site %s: %w", site, ErrInjected)
			}
		}
	}
	in.mu.Unlock()
	if stall > 0 {
		time.Sleep(stall)
	}
	return err
}

// SiteStats is one rule's visit/fire tally.
type SiteStats struct {
	Site  string
	Kind  string
	Hits  int
	Fires int
}

// Stats snapshots every armed rule, sorted by site then kind.
func (in *Injector) Stats() []SiteStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []SiteStats
	for site, rules := range in.rules {
		for _, r := range rules {
			out = append(out, SiteStats{Site: site, Kind: r.Kind.String(), Hits: r.hits, Fires: r.fires})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// String renders the stats as one line per rule.
func (in *Injector) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fault injector (seed %d):", in.seed)
	for _, s := range in.Stats() {
		fmt.Fprintf(&sb, "\n  %-14s %-6s %d/%d fired", s.Site, s.Kind, s.Fires, s.Hits)
	}
	return sb.String()
}

// active holds the installed process-wide checker. An atomic.Value of a
// concrete box type keeps Check to one atomic load on the disabled path.
var active atomic.Value // of checkerBox

type checkerBox struct{ c Checker }

// Install sets the process-wide checker consulted by Check; nil disables
// injection. Typically installed once at startup (a chaos profile flag) or
// around a test body.
func Install(c Checker) {
	active.Store(checkerBox{c: c})
}

// Active returns the installed checker (nil when disabled).
func Active() Checker {
	b, _ := active.Load().(checkerBox)
	return b.c
}

// Enabled reports whether a checker is installed.
func Enabled() bool { return Active() != nil }

// Check is the hot-path hook instrumented layers call: a no-op returning nil
// unless an injector is installed and armed at the site.
func Check(site string) error {
	b, _ := active.Load().(checkerBox)
	if b.c == nil {
		return nil
	}
	return b.c.Check(site)
}

// Chaos returns an injector armed with the standard chaos profile the cmd
// binaries enable behind their -chaos flag: a deterministic 5% of VFT sends
// fail after staging (exercising retransmit + dedup), occasional send jitter,
// and sporadic ODBC query failures (exercising the baseline loader's
// per-connection retries). Crash faults are not part of the default profile —
// they are armed explicitly by the chaos test suite, which also provides the
// rebuild hooks that make worker loss recoverable.
func Chaos(seed int64) *Injector {
	in := New(seed)
	in.MustArm(Rule{Site: SiteVFTSend, Kind: Error, EveryN: 20})
	in.MustArm(Rule{Site: SiteVFTSend, Kind: Delay, Prob: 0.01, Delay: 200 * time.Microsecond})
	in.MustArm(Rule{Site: SiteODBCQuery, Kind: Error, EveryN: 25})
	return in
}
