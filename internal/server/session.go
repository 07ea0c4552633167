package server

import (
	"fmt"
	"strings"

	"simsym/internal/adversary"
	"simsym/internal/core"
	"simsym/internal/partition"
	"simsym/internal/runcfg"
	"simsym/internal/sysdsl"
	"simsym/internal/system"
)

// SessionConfig is the JSON body of a session-create request. Its Config
// field is the same runcfg.Common vocabulary the facade's functional
// options build (simsym.RunConfig), so a daemon request and a Go option
// list spell the shared knobs identically; the fields around it name
// what the facade takes as positional arguments: the topology and the
// hosted algorithm.
type SessionConfig struct {
	// Topology is a sysdsl description or generator directive
	// ("gen dining 5", "gen fig2", or a full names/var/proc listing).
	Topology string `json:"topology"`
	// Kind selects the hosted algorithm: "select" runs the paper's
	// SELECT program under Uniqueness+Stability invariants, "dining"
	// the fork-grabbing philosopher program under exclusion.
	Kind string `json:"kind"`
	// Instr picks the instruction set for "select" sessions: "s", "l",
	// or "q" (default "q").
	Instr string `json:"instr,omitempty"`
	// SchedClass picks the schedule class for "select" sessions:
	// "general", "fair" (default), or "bounded".
	SchedClass string `json:"sched_class,omitempty"`
	// Meals is the per-philosopher meal target for "dining" sessions
	// (default 2).
	Meals int `json:"meals,omitempty"`
	// Tenant attributes the session to a rate-limit bucket; empty is the
	// anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
	// Config carries the shared run options; the session consumes Seed
	// (schedule and fault streams), SchedKind ("uniform" default,
	// "shuffled"), FaultClasses, and MaxSlots (overall slot budget).
	Config runcfg.Common `json:"config"`
}

// session is one hosted VM run. All fields are owned by the shard
// goroutine the session hashes to; nothing here is locked.
type session struct {
	id     string
	tenant string
	cfg    SessionConfig
	sys    *system.System
	h      *adversary.Harness
	exec   *adversary.Exec
	res    *adversary.Result // set once finalized

	// dyn mirrors the session topology once the first hot-reload arrives;
	// subsequent reloads diff against it incrementally instead of
	// relabeling from scratch. Nil until then — steady-state sessions pay
	// nothing for the feature.
	dyn     *core.DynSystem
	reloads int
	relabel *RelabelStats // last reload's incremental work

	// Per-session SLO counters, reported by inspect and folded into the
	// registry-wide histograms as the shard applies batches.
	slots   int
	steps   int
	batches int
	counted bool // finish counters recorded in the registry
}

// newSession validates cfg, builds the topology and harness through the
// same constructors the facade and CLIs use, and starts the run.
func newSession(id string, cfg SessionConfig) (*session, error) {
	if strings.TrimSpace(cfg.Topology) == "" {
		return nil, fmt.Errorf("%w: empty topology", ErrBadSession)
	}
	sys, err := sysdsl.Parse(cfg.Topology)
	if err != nil {
		return nil, fmt.Errorf("%w: topology: %v", ErrBadSession, err)
	}
	h, err := buildHarness(cfg, sys)
	if err != nil {
		return nil, err
	}
	exec, err := h.Start()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSession, err)
	}
	return &session{id: id, tenant: cfg.Tenant, cfg: cfg, sys: sys, h: h, exec: exec}, nil
}

// buildHarness constructs the hosted VM harness for cfg over sys: the
// algorithm, the seeded schedule, and the fault streams. Shared by
// session creation and topology reload, so a reloaded session runs
// under exactly the knobs it was created with.
func buildHarness(cfg SessionConfig, sys *system.System) (*adversary.Harness, error) {
	seeding, err := adversary.NewSeeding(cfg.Config.SchedKind, cfg.Config.FaultClasses)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSession, err)
	}
	var h *adversary.Harness
	switch cfg.Kind {
	case "select":
		instr, err := system.ParseInstrSet(cfg.Instr)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSession, err)
		}
		sc, err := system.ParseScheduleClass(cfg.SchedClass)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSession, err)
		}
		h, err = adversary.NewSelectHarness(sys, instr, sc, nil)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSession, err)
		}
	case "dining":
		meals := cfg.Meals
		if meals <= 0 {
			meals = 2
		}
		h, err = adversary.NewDiningHarness(sys, meals, nil)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSession, err)
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %q (want select or dining)", ErrBadSession, cfg.Kind)
	}
	seeding.Install(h, cfg.Config.Seed)
	if cfg.Config.MaxSlots > 0 {
		h.MaxSlots = cfg.Config.MaxSlots
	}
	return h, nil
}

// reload swaps the session onto a new topology. The incremental engine
// diffs the parsed target against the previous topology (splitting and
// merging only the similarity classes the delta invalidates) and the
// hosted run restarts on the new system under the session's original
// knobs; cumulative batch counters survive. The engine is created
// lazily from the session's current system on the first reload.
func (s *session) reload(topology string) (partition.UpdateStats, error) {
	var zero partition.UpdateStats
	if strings.TrimSpace(topology) == "" {
		return zero, fmt.Errorf("%w: empty topology", ErrBadSession)
	}
	target, err := sysdsl.Parse(topology)
	if err != nil {
		return zero, fmt.Errorf("%w: topology: %v", ErrBadSession, err)
	}
	// Build the replacement harness before touching the engine: a target
	// the hosted algorithm rejects (e.g. dining needs every fork shared)
	// must not leave the engine diffed ahead of the session.
	h, err := buildHarness(s.cfg, target)
	if err != nil {
		return zero, err
	}
	exec, err := h.Start()
	if err != nil {
		return zero, fmt.Errorf("%w: %v", ErrBadSession, err)
	}
	if s.dyn == nil {
		d, err := core.NewDynSystem(s.sys, core.RuleQ, core.Config{})
		if err != nil {
			return zero, fmt.Errorf("%w: %v", ErrBadSession, err)
		}
		s.dyn = d
	}
	st, err := s.dyn.ApplyDiff(target)
	if err != nil {
		return zero, fmt.Errorf("%w: reload: %v", ErrBadSession, err)
	}
	s.sys, s.h, s.exec, s.res = target, h, exec, nil
	s.cfg.Topology = topology
	s.counted = false
	s.slots, s.steps = 0, 0
	s.reloads++
	s.relabel = &RelabelStats{
		Touched: st.Touched,
		Splits:  st.Splits,
		Merges:  st.Merges,
		Rebuild: st.Rebuild,
		Classes: st.Classes,
	}
	return st, nil
}

// advance consumes up to maxSlots further slots and finalizes the run
// when it ends. It returns the slots actually consumed.
func (s *session) advance(maxSlots int) (consumed int, err error) {
	if s.res != nil {
		return 0, nil
	}
	before := s.exec.Slots()
	finished, err := s.exec.Advance(maxSlots)
	consumed = s.exec.Slots() - before
	s.slots = s.exec.Slots()
	s.steps = s.exec.Steps()
	s.batches++
	if err != nil {
		s.res = s.exec.Finalize()
		return consumed, err
	}
	if finished {
		s.res = s.exec.Finalize()
	}
	return consumed, nil
}

// runToEnd drives the session to its overall budget.
func (s *session) runToEnd() error {
	for s.res == nil {
		if _, err := s.advance(1 << 14); err != nil {
			return err
		}
	}
	return nil
}

// RelabelStats is the JSON view of one topology reload's incremental
// relabeling work, surfaced on the session snapshot after a reload.
type RelabelStats struct {
	// Touched is the number of slots the diff reported changed.
	Touched int `json:"touched"`
	// Splits and Merges count the class repairs the delta forced.
	Splits int `json:"splits"`
	Merges int `json:"merges"`
	// Rebuild reports a fall-back to full recomputation (the delta
	// destroyed too much symmetry for incremental repair to win).
	Rebuild bool `json:"rebuild,omitempty"`
	// Classes is the similarity class count after the reload.
	Classes int `json:"classes"`
}

// Snapshot is the JSON view of a session's state, returned by every
// step/run/inspect/delete reply.
type Snapshot struct {
	ID      string `json:"id"`
	Tenant  string `json:"tenant,omitempty"`
	Kind    string `json:"kind"`
	Procs   int    `json:"procs"`
	Slots   int    `json:"slots"`
	Steps   int    `json:"steps"`
	Batches int    `json:"batches"`
	// Reloads counts topology hot-reloads; Relabel is the last one's
	// incremental relabeling work (absent before the first reload).
	Reloads  int           `json:"reloads,omitempty"`
	Relabel  *RelabelStats `json:"relabel,omitempty"`
	Finished bool          `json:"finished"`
	Done     bool          `json:"done"`
	Halted   bool          `json:"halted"`
	// Violation is the first invariant breach's message ("" while clean).
	Violation string `json:"violation,omitempty"`
	// Fingerprint identifies the final machine state (set once finished).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Schedule and Faults are the replayable trace, included only when
	// the caller asked for it (inspect ?trace=1).
	Schedule []int    `json:"schedule,omitempty"`
	Faults   []string `json:"faults,omitempty"`
}

func (s *session) snapshot(withTrace bool) Snapshot {
	snap := Snapshot{
		ID:      s.id,
		Tenant:  s.tenant,
		Kind:    s.cfg.Kind,
		Procs:   s.sys.NumProcs(),
		Slots:   s.exec.Slots(),
		Steps:   s.exec.Steps(),
		Batches: s.batches,
		Reloads: s.reloads,
		Relabel: s.relabel,
	}
	if v := s.exec.Violation(); v != nil {
		snap.Violation = v.Reason
	}
	if s.res != nil {
		snap.Finished = true
		snap.Done = s.res.Done
		snap.Halted = s.res.Halted
		snap.Fingerprint = s.res.Fingerprint()
	}
	if withTrace {
		res := s.res
		if res == nil {
			// Mid-run inspect: the exec's live record has the prefix.
			snap.Schedule = append([]int(nil), s.exec.Trace()...)
			for _, ev := range s.exec.FaultLog() {
				snap.Faults = append(snap.Faults, ev.String())
			}
		} else {
			snap.Schedule = append([]int(nil), res.Schedule...)
			for _, ev := range res.FaultLog {
				snap.Faults = append(snap.Faults, ev.String())
			}
		}
	}
	return snap
}
